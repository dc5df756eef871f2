"""Property tests for bulk plan compilation.

Access plans are compiled in passes: one ``Env.locate_boxes`` for the
distinct addresses of a whole pass — a tile, or every one-Block kernel
of a task sweeping one stencil — plus a closed-form in-block slice part
per Block.  Four promises are checked here:

* ``Env.locate_blocks``, read through ``Env.box_blocks``, is the scalar
  ``Env.find_block`` applied to each address, for any tree shape and any
  start Block; ``Env.locate_boxes`` answers what the broadcast
  comparison it replaced (kept below, in this file only) answered, and
  counts the same searches, on Envs of 64 boxes and more;
* a bulk-compiled plan is indistinguishable from what a per-site
  compiler (kept below, in this file only) derives with scalar searches;
* a one-pass compile gives every Block the tables a compile of its own
  gives it, on SGrid Envs of one to three ranks, for one- and two-cell
  rings and four stencils;
* bulk compilation costs at most one search step per resolved address.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.annotation import Platform
from repro.apps import JacobiSGrid, JacobiUSGrid, ParticleSimulation
from repro.apps.jacobi_sgrid import STENCIL as FIVE_POINT
from repro.apps.particle_sim import NEIGHBOURHOOD
from repro.memory import (
    ArithmeticBlock,
    BufferOnlyBlock,
    DataBlock,
    Env,
    GlobalAddress,
    MemoryPool,
    PageKey,
    PoolGroup,
    ReferenceBlock,
    compile_address_plan,
    compile_offsets_plan,
)
from repro.memory.mmat import stencil_table
from repro.runtime import TaskContext, task_scope


# ----------------------------------------------------------------------
# (a) locate_blocks == find_block per address
# ----------------------------------------------------------------------

def located_blocks(env, addresses, start):
    """``env.locate_blocks`` as Blocks (None: no Block)."""
    blocks = env.box_blocks(addresses.shape[1])
    return [blocks[i] if i >= 0 else None for i in env.locate_blocks(addresses, start=start).tolist()]


@st.composite
def random_trees(draw):
    """A random Env plus the Blocks a search may start from."""
    ndim = draw(st.integers(1, 3))
    grid = [draw(st.integers(1, 3)) for _ in range(ndim)]
    edge = [draw(st.integers(1, 3)) for _ in range(ndim)]
    env = Env(allocator=PoolGroup([MemoryPool(1 << 20, name="tree-pool")]), name="tree")
    parents = [env.data_joint]
    starts = [None, env.root, env.data_joint]

    def add(origin, shape):
        cls = BufferOnlyBlock if draw(st.booleans()) else DataBlock
        if draw(st.integers(0, 3)) == 0:  # an extra joint, possibly nested
            parents.append(env.add_joint(parent=draw(st.sampled_from(parents))))
            starts.append(parents[-1])
        block = cls(origin, shape, components=1, page_elements=4, allocator=env.allocator)
        starts.append(env.add_data_block(block, parent=draw(st.sampled_from(parents))))

    for cell in itertools.product(*(range(g) for g in grid)):
        add([c * e for c, e in zip(cell, edge)], edge)
    if draw(st.booleans()):  # a Block overlapping its neighbours under the joint
        add([0] * ndim, [e + 1 for e in edge])
    extent = [g * e for g, e in zip(grid, edge)]
    ring = ([-1] * ndim, [x + 2 for x in extent])
    # The rings overlap the whole domain (and each other), as SGrid's do.
    if draw(st.booleans()):
        starts.append(env.add_boundary_block(ArithmeticBlock(*ring, lambda addr: 1.0)))
    if draw(st.booleans()):
        clamp = lambda addr: GlobalAddress(  # noqa: E731
            min(max(a, 0), x - 1) for a, x in zip(addr, extent)
        )
        starts.append(env.add_boundary_block(ReferenceBlock(*ring, clamp)))
    addresses = draw(
        st.lists(
            st.tuples(*(st.integers(-2, x + 2) for x in extent)), min_size=1, max_size=24
        )
    )
    return env, starts, np.asarray(addresses, dtype=np.int64).reshape(len(addresses), ndim)


class TestLocateBlocks:
    @settings(max_examples=150, deadline=None)
    @given(random_trees(), st.data())
    def test_matches_scalar_search_from_any_start(self, tree, data):
        env, starts, addresses = tree
        start = data.draw(st.sampled_from(starts))
        found = located_blocks(env, addresses, start)
        expected = [env.find_block(tuple(a), start=start) for a in addresses.tolist()]
        assert len(found) == len(expected)
        assert all(f is e for f, e in zip(found, expected))

    def test_counts_one_search_per_address_and_sees_new_blocks(self):
        env = Env(allocator=PoolGroup([MemoryPool(1 << 20, name="p")]), name="grow")
        first = env.add_data_block(
            DataBlock((0,), (4,), components=1, page_elements=4, allocator=env.allocator)
        )
        addresses = np.array([[1], [5], [9]])
        assert located_blocks(env, addresses, first) == [first, None, None]
        assert (env.stats.searches, env.stats.search_steps) == (3, 3)
        # The box table is rebuilt when the tree grows.
        second = env.add_data_block(
            DataBlock((4,), (4,), components=1, page_elements=4, allocator=env.allocator)
        )
        assert located_blocks(env, addresses, first) == [first, second, None]


class TestLocatePrefilter:
    """The bulk locate tests an address only against the Blocks its grid
    cell lists; answers and counts stay per-address ``find_block``'s."""

    @staticmethod
    def env_1d(*boxes):
        env = Env(allocator=PoolGroup([MemoryPool(1 << 20, name="p")]), name="line")
        for origin, size in boxes:
            env.add_data_block(
                DataBlock((origin,), (size,), components=1, page_elements=4, allocator=env.allocator)
            )
        return env

    @staticmethod
    def locate(env, addresses, start):
        """``(blocks found, addresses sent to the scalar fallback)``."""
        expected = [env.find_block(tuple(a), start=start) for a in addresses.tolist()]
        scalar = []
        search = env.find_block

        def counted(addr, *, start=None):
            scalar.append(addr)
            return search(addr, start=start)

        env.find_block = counted
        try:
            found = located_blocks(env, addresses, start)
        finally:
            del env.find_block
        assert all(f is e for f, e in zip(found, expected))
        return found, scalar

    def test_no_block_met_is_all_misses_still_counted(self):
        env = self.env_1d((0, 4), (4, 4))
        addresses = np.array([[20], [31], [25]])
        found, scalar = self.locate(env, addresses, env.data_blocks()[0])
        assert found == [None] * 3 and scalar == []
        before = (env.stats.searches, env.stats.search_steps)
        assert env.locate_blocks(addresses).tolist() == [-1] * 3
        assert (env.stats.searches - before[0], env.stats.search_steps - before[1]) == (3, 3)

    def test_overlap_outside_the_box_takes_no_fallback(self):
        env = self.env_1d((0, 4), (4, 4), (6, 4))  # the last two overlap at 6, 7
        found, scalar = self.locate(env, np.array([[1], [3], [2]]), env.root)
        assert found == [env.data_blocks()[0]] * 3 and scalar == []

    def test_overlap_inside_the_box_takes_the_fallback(self):
        env = self.env_1d((0, 4), (4, 4), (6, 4))
        _, scalar = self.locate(env, np.array([[1], [7], [9]]), env.root)
        assert scalar == [(7,)]

    def test_boundary_start_contests_every_kept_block(self):
        env = Env(allocator=PoolGroup([MemoryPool(1 << 20, name="p")]), name="rings")
        for origin in itertools.product((0, 4, 8), repeat=2):
            env.add_data_block(
                DataBlock(origin, (4, 4), components=1, page_elements=4, allocator=env.allocator)
            )
        inner = env.add_boundary_block(ArithmeticBlock((-1, -1), (14, 14), lambda a: 1.0))
        env.add_boundary_block(ArithmeticBlock((-2, -2), (16, 16), lambda a: 2.0))
        # Near one corner: four Data Blocks and both rings meet the box.
        addresses = np.array([[-2, 0], [-1, 3], [5, 5], [-2, -2], [2, 6]])
        blocks = env.box_blocks(2)
        assert sum(
            bool(np.all((addresses.min(0) < np.add(b.origin, b.shape)) & (addresses.max(0) >= b.origin)))
            for b in blocks
        ) == 6 < len(blocks)
        _, scalar = self.locate(env, addresses, inner)
        # Every address held by two kept Blocks goes to the scalar search:
        # all but (-2, 0) and (-2, -2), which only the outer ring holds.
        assert scalar == [(-1, 3), (5, 5), (2, 6)]


def broadcast_locate(env, addresses, starts):
    """What ``Env.locate_boxes`` answered before its grid (kept here
    only): every address compared with every box, ``(first box in root
    order, ambiguous)``; ambiguous is more than one holding box under the
    data joint, or anywhere when some start is on another branch."""
    ndim = addresses.shape[1]
    blocks = env.box_blocks(ndim)
    lo = np.array([b.origin for b in blocks]).reshape(-1, ndim)
    hi = lo + np.array([b.shape for b in blocks]).reshape(-1, ndim)
    hit = ((addresses[:, None, :] >= lo) & (addresses[:, None, :] < hi)).all(axis=2)
    first = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
    joint = {b.block_id for b in env.data_joint.iter_subtree()}
    off_branch = any(
        s is not None and s is not env.root and s.block_id not in joint for s in starts
    )
    contested = len(blocks) if off_branch else sum(b.block_id in joint for b in blocks)
    return first, hit[:, :contested].sum(axis=1) > 1


@st.composite
def many_box_envs(draw):
    """An Env of at least 64 2-D boxes: a lattice of equal Blocks, or
    Blocks of random origins and extents (which may overlap), some under
    nested joints, inside optional boundary rings; the starts and the
    addresses to locate."""
    env = Env(allocator=PoolGroup([MemoryPool(1 << 22, name="many")]), name="many")
    parents, starts = [env.data_joint], [None, env.root, env.data_joint]
    if draw(st.booleans()):  # the lattice: 8 x 8 Blocks of 4 x 3
        boxes = [((4 * i, 3 * j), (4, 3)) for i in range(8) for j in range(8)]
        extent = (32, 24)
    else:
        corner = st.tuples(st.integers(0, 40), st.integers(0, 40))
        size = st.tuples(st.integers(1, 9), st.integers(1, 9))
        boxes = draw(st.lists(st.tuples(corner, size), min_size=64, max_size=80))
        extent = (49, 49)
    env.reserve_image(1, np.float64, sum(w * h for _, (w, h) in boxes))
    for origin, shape in boxes:
        if draw(st.integers(0, 15)) == 0:
            parents.append(env.add_joint(parent=draw(st.sampled_from(parents))))
        block = DataBlock(origin, shape, components=1, page_elements=16)
        starts.append(env.add_data_block(block, parent=draw(st.sampled_from(parents))))
    for width in draw(st.lists(st.sampled_from([1, 2]), max_size=2, unique=True)):
        ring = ((-width, -width), (extent[0] + 2 * width, extent[1] + 2 * width))
        starts.append(env.add_boundary_block(ArithmeticBlock(*ring, lambda addr: 1.0)))
    addresses = draw(st.lists(
        st.tuples(st.integers(-3, extent[0] + 3), st.integers(-3, extent[1] + 3)),
        min_size=1, max_size=60,
    ))
    return env, starts, np.asarray(addresses, dtype=np.int64).reshape(-1, 2)


class TestLocateOnManyBoxes:
    @settings(max_examples=60, deadline=None)
    @given(many_box_envs(), st.data())
    def test_grid_answers_what_the_broadcast_did(self, tree, data):
        env, starts, addresses = tree
        assert len(env.box_blocks(2)) >= 64
        chosen = data.draw(st.lists(st.sampled_from(starts), min_size=1, max_size=3))
        expected_first, expected_ambiguous = broadcast_locate(env, addresses, chosen)
        before = (env.stats.searches, env.stats.search_steps)
        first, ambiguous = env.locate_boxes(addresses, starts=chosen)
        assert first.tolist() == expected_first.tolist()
        assert ambiguous.tolist() == expected_ambiguous.tolist()
        located = len(addresses) - int(expected_ambiguous.sum())
        assert (env.stats.searches - before[0], env.stats.search_steps - before[1]) == (
            located, located
        )
        start = chosen[0]
        found = located_blocks(env, addresses, start)
        assert found == [env.find_block(tuple(a), start=start) for a in addresses.tolist()]


# ----------------------------------------------------------------------
# (b) bulk-compiled plans == per-site reference compiler
# ----------------------------------------------------------------------

def reference_sites(env, block, addresses, ring, starts=None):
    """Per-site reference compiler: scalar searches, one site at a time.

    Returns ``(sites, memo)``; a site is ``(source Block, element index)``
    or ``(None, constant)``.  ``ring[i]`` tells whether site ``i`` needs
    resolving (an offsets plan's geometrically inside sites do not);
    ``starts[i]`` is the Block it starts from (default: ``block``).
    """
    sites, memo = [], {}
    for addr, resolve, start in zip(addresses, ring, starts or [block] * len(addresses)):
        target = start
        if resolve and not start.contains(addr):
            key = (start.block_id, tuple(a - o for a, o in zip(addr, start.origin)))
            if key not in memo:
                memo[key] = env.find_block(addr, start=start)
            target = memo[key]
        while isinstance(target, ReferenceBlock):
            addr = tuple(target.mapper(GlobalAddress(addr)))
            direct = target.target
            if direct is not None and direct.contains(addr):
                target = direct
            else:
                target = env.find_block(addr, start=env.root)
        if isinstance(target, DataBlock):
            sites.append((target, target.element_index(addr)))
        else:
            sites.append((None, np.asarray(target.read(addr), dtype=np.float64).reshape(-1)))
    return sites, memo


def located(env, addresses, starts):
    """How many addresses a tile-wide compile locates at most: each
    distinct one a site reads from outside its start Block (once per start
    Block reading it, where two Blocks under the data joint hold it), plus
    every hop of a Reference block whose mapped address leaves its target."""
    joint = [b for b in env.data_joint.iter_subtree() if b.holds_data]
    keys = {}
    for addr, start in zip(addresses, starts):
        if not start.contains(addr):
            held = sum(b.contains(addr) for b in joint)
            keys[addr if held < 2 else (start.block_id, addr)] = (addr, start)
    count = len(keys)
    for addr, start in keys.values():
        target = env.find_block(addr, start=start)
        while isinstance(target, ReferenceBlock):
            addr = tuple(target.mapper(GlobalAddress(addr)))
            if target.target is not None and target.target.contains(addr):
                target = target.target
            else:
                count += 1
                target = env.find_block(addr, start=env.root)
    return count


def assert_plan_matches_reference(env, block, plan, addresses, ring, starts=None):
    """``plan()`` compiles ``block`` (a Block or a tile) into what the per-site
    reference derives for its ``addresses`` in site order, site ``i`` read
    from ``starts[i]`` (default: ``block``), with at most one Env search per
    address :func:`located` counts."""
    env.mmat.reset()
    starts = starts or [block] * len(addresses)
    sites, _ = reference_sites(env, block, addresses, ring, starts)
    resolved = [(addr, start) for addr, start, r in zip(addresses, starts, ring) if r]
    bound = located(env, [addr for addr, _ in resolved], [start for _, start in resolved])
    expected = np.empty((len(sites), starts[0].components))
    halo = []
    for i, (source, payload) in enumerate(sites):
        expected[i] = payload if source is None else env.dense_read(source)[payload]
        if isinstance(source, BufferOnlyBlock):
            halo.append((i, PageKey(source.block_id, payload // source.page_elements)))

    searches = env.stats.searches
    plan = plan()
    assert env.stats.searches - searches <= bound
    assert len(env.mmat) == env.mmat.hits == env.mmat.misses == 0  # the plan is the memo
    assert plan.n_sites == len(sites)
    assert np.array_equal(plan.execute(env), expected)
    assert sorted(plan.remote_pages()) == sorted({key for _, key in halo})
    halo_sites = np.unique([i for i, _ in halo]).astype(np.intp)
    assert np.array_equal(ghost_sites(plan), halo_sites)
    assert plan.in_block_sites == sum(source is start for (source, _), start in zip(sites, starts))
    assert plan.out_of_block_sites == sum(
        source is not None and source is not start for (source, _), start in zip(sites, starts)
    )
    assert plan.resolved_sites == sum(ring)


def ghost_sites(plan) -> np.ndarray:
    """The flat output sites of ``plan`` that read ghost rows, sorted."""
    sites = [seg.ghost_sites if seg.dst_idx is None else seg.dst_idx[seg.ghost_sites]
             for seg in plan.segments]
    return np.unique(np.concatenate(sites)) if sites else np.empty(0, np.intp)


def rank0_env(app_cls, config, ranks=2):
    """The Env rank 0 of a ``ranks``-rank world builds, with every Block filled."""
    app = app_cls(config)
    app.bind_platform(Platform.preset("mpi", ranks=ranks, mmat=True))
    with task_scope(TaskContext(mpi_rank=0, mpi_size=ranks)):
        app.initialize()
    env = app.env
    rng = np.random.default_rng(7)
    for block in env.data_blocks(include_buffer_only=True):
        if isinstance(block, BufferOnlyBlock):
            block.load_dense(rng.random((block.element_count, block.components)))
            block.is_valid = True
    return env


def tile_sites(tile, table):
    """``(addresses, starts)`` of a tile's ``(elements, k[, ndim])`` address
    table in plan site order: column by column, each element read from its
    own Block."""
    starts = [block for block in tile for _ in range(block.element_count)]
    columns = np.asarray(table).reshape(len(starts), -1, tile[0].ndim).swapaxes(0, 1)
    return [tuple(map(int, addr)) for column in columns for addr in column], starts * len(columns)


def tiles_of(env):
    """Tiles of 2, 5 and all of the Env's owned Blocks, in image-row order."""
    blocks = sorted(env.data_blocks(), key=lambda b: env.image_slot(b)[1])
    return [tuple(blocks[:n]) for n in (2, 5, len(blocks))]


def offset_sites(block, offsets):
    """``(addresses, ring flags)`` of an offsets plan in its site order."""
    addresses, ring = [], []
    for off in offsets:
        for local in itertools.product(*(range(s) for s in block.shape)):
            shifted = tuple(c + o for c, o in zip(local, off))
            addresses.append(tuple(o + c for o, c in zip(block.origin, shifted)))
            ring.append(not all(0 <= c < s for c, s in zip(shifted, block.shape)))
    return addresses, ring


NINE_POINT = [(dx, dy) for dx in (0, 1, -1) for dy in (0, 1, -1)]
SGRID = dict(region=16, block_size=4, page_elements=8, init=lambda x, y: 0.3 * x - 0.7 * y)
USGRID = dict(region=12, block_cells=16, page_elements=8, init=lambda x, y: 0.3 * x - 0.7 * y)
#: CaseR over 40 Blocks: a neighbour table lands in most of them, so its
#: plan merges many sources into its (at most) two tables.
USGRID_40 = dict(USGRID, region=40, block_cells=40, case="R")


class TestPlansMatchPerSiteReference:
    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_sgrid_offsets_plans(self, boundary):
        env = rank0_env(JacobiSGrid, dict(SGRID, boundary=boundary))
        assert any(isinstance(b, BufferOnlyBlock) for b in env.data_blocks(include_buffer_only=True))
        for block in env.data_blocks():
            addresses, ring = offset_sites(block, NINE_POINT)
            assert_plan_matches_reference(
                env, block, lambda: compile_offsets_plan(env, block, NINE_POINT), addresses, ring
            )

    @pytest.mark.parametrize("case", ["C", "R"])
    def test_usgrid_address_and_offsets_plans(self, case):
        env = rank0_env(JacobiUSGrid, dict(USGRID, case=case))
        for block in env.data_blocks():
            table = block.static_fields["neighbors"]
            addresses = [(int(a),) for a in table.T.reshape(-1)]  # column-major sites
            assert_plan_matches_reference(
                env, block, lambda: compile_address_plan(env, block, table),
                addresses, [True] * len(addresses),
            )
            addresses, ring = offset_sites(block, [(0,), (3,), (20,)])
            assert_plan_matches_reference(
                env, block, lambda: compile_offsets_plan(env, block, [(0,), (3,), (20,)]),
                addresses, ring,
            )

    def test_many_source_address_plans_merge_into_one_table(self):
        env = rank0_env(JacobiUSGrid, USGRID_40)
        assert len(env.data_blocks(include_buffer_only=True)) == 40
        for block in env.data_blocks()[::4]:
            table = block.static_fields["neighbors"]
            addresses = [(int(a),) for a in table.T.reshape(-1)]  # column-major sites
            assert_plan_matches_reference(
                env, block, lambda: compile_address_plan(env, block, table),
                addresses, [True] * len(addresses),
            )
            plan = compile_address_plan(env, block, table)
            # One dense table over the class's owned ∥ ghost rows.
            (segment,) = plan.segments
            assert plan.halo_segments == [segment] and segment.dst_idx is None
            remote = [b for b in segment.sources if isinstance(b, BufferOnlyBlock)]
            assert len(segment.sources) - len(remote) > 5 and len(remote) > 5
            rows = segment.rows()[0]
            image = segment.image
            assert np.all((rows[segment.ghost_sites] >= image.ghost_base)
                          & (rows[segment.ghost_sites] < image.ghost_base + image.halo_rows))

    @pytest.mark.parametrize(
        "config", [dict(USGRID, case="C"), dict(USGRID, case="R"), USGRID_40], ids=["C", "R", "R40"]
    )
    def test_usgrid_tile_plans(self, config):
        env = rank0_env(JacobiUSGrid, config)
        offsets = [(0,), (3,), (20,)]
        for tile in tiles_of(env):
            table = np.concatenate([b.static_fields["neighbors"] for b in tile])
            addresses, starts = tile_sites(tile, table)
            assert_plan_matches_reference(
                env, tile, lambda: compile_address_plan(env, tile, table),
                addresses, [True] * len(addresses), starts,
            )
            addresses, starts = tile_sites(tile, stencil_table(tile, offsets))
            assert_plan_matches_reference(
                env, tile, lambda: compile_offsets_plan(env, tile, offsets),
                addresses, [True] * len(addresses), starts,
            )

    def test_sgrid_tile_plans_follow_the_neumann_reference(self):
        env = rank0_env(JacobiSGrid, dict(SGRID, boundary="neumann"))
        assert any(isinstance(b, ReferenceBlock) for b in env.root.iter_subtree())
        for tile in tiles_of(env):
            addresses, starts = tile_sites(tile, stencil_table(tile, NINE_POINT))
            assert_plan_matches_reference(
                env, tile, lambda: compile_offsets_plan(env, tile, NINE_POINT),
                addresses, [True] * len(addresses), starts,
            )

    def test_tile_reading_overlapping_blocks_searches_from_each_start(self):
        """Address 5 lies in two Blocks under the data joint: ``x`` beside
        ``a`` and ``b`` beside ``e``.  Read from ``a`` it is ``x``'s, from
        ``e`` it is ``b``'s — the same address, two sources, one plan."""
        env = Env(
            allocator=PoolGroup([MemoryPool(1 << 20, name="p")]), name="overlap", mmat_enabled=True
        )
        left, right = (env.add_joint(parent=env.data_joint) for _ in range(2))
        blocks = {}
        layout = (("a", 0, left), ("x", 4, left), ("b", 4, right), ("e", 8, right))
        for name, origin, parent in layout:  # a: 10..13, x: 20..23, b: 30..33, e: 40..43
            block = DataBlock((origin,), (4,), components=1, page_elements=4, allocator=env.allocator)
            blocks[name] = env.add_data_block(block, parent=parent)
            for buf in block.buffer.buffers:
                buf.load_dense(np.arange(4.0).reshape(4, 1) + 10 * len(blocks))
        tile = (blocks["a"], blocks["e"])
        table = np.array([[5, 1], [5, 9], [2, 5], [3, 6], [5, 9], [5, 4], [11, 5], [6, 0]])
        addresses, starts = tile_sites(tile, table)
        assert_plan_matches_reference(
            env, tile, lambda: compile_address_plan(env, tile, table),
            addresses, [True] * len(addresses), starts,
        )
        plan = compile_address_plan(env, tile, table)
        values = plan.execute(env)[:, 0]
        assert values[0] == 21.0 and values[4] == 31.0  # x[1] from a, b[1] from e
        assert {b.block_id for seg in plan.segments for b in seg.sources} == {
            blocks[n].block_id for n in "axbe"
        }

    def test_particle_offsets_plans(self):
        env = rank0_env(
            ParticleSimulation, dict(particles=128, block_buckets=4, page_elements=4)
        )
        for block in env.data_blocks():
            addresses, ring = offset_sites(block, NEIGHBOURHOOD)
            assert_plan_matches_reference(
                env, block, lambda: compile_offsets_plan(env, block, NEIGHBOURHOOD),
                addresses, ring,
            )

    def test_invalid_halo_is_recorded_and_reads_a_field_value(self):
        """A page not valid yet reads the first owned row of the read slab:
        the re-executed step's ``fn`` never computes on a made-up zero."""
        env = rank0_env(JacobiSGrid, dict(SGRID, init=lambda x, y: 1.0 + 0.3 * x + 0.7 * y))
        env.invalidate_buffer_only()
        block = next(
            b for b in env.data_blocks()
            if compile_offsets_plan(env, b, NINE_POINT).has_halo
        )
        plan = compile_offsets_plan(env, block, NINE_POINT)
        out = plan.execute(env)
        assert env.missing_pages == set(plan.remote_pages())
        field = env.image_slot(env.data_blocks()[0])[0].read[0, 0]
        assert field != 0.0 and np.all(out[ghost_sites(plan)] == field)
        # The scalar path reads the same value in place of such a page.
        page = sorted(plan.remote_pages())[0]
        remote = env.block(page.block_id)
        first = np.unravel_index(page.page_index * remote.page_elements, remote.shape)
        addr = tuple(np.add(remote.origin, first).tolist())
        assert env.read_from(block, addr) == field

    def test_pages_of_two_withheld_halo_blocks_are_recorded(self):
        env = rank0_env(JacobiUSGrid, USGRID_40)
        block = env.data_blocks()[0]
        table = block.static_fields["neighbors"]
        plan = compile_address_plan(env, block, table)
        complete = plan.execute(env).copy()
        withheld = sorted({key.block_id for key in plan.remote_pages()})[1:3]
        for block_id in withheld:
            env.block(block_id).invalidate()
        out = plan.execute(env)
        # Exactly the withheld Blocks' pages are missing; every other site
        # (other halo Blocks included) reads its value.
        assert env.missing_pages == {
            key for key in plan.remote_pages() if key.block_id in withheld
        }
        assert env.stats.missing_recorded == len(env.missing_pages)
        sites, _ = reference_sites(
            env, block, [(int(a),) for a in table.T.reshape(-1)], [True] * table.size
        )
        lost = np.array(
            [source is not None and source.block_id in withheld for source, _ in sites]
        )
        assert lost.any() and np.array_equal(out[~lost], complete[~lost])


# ----------------------------------------------------------------------
# (c) one compile pass for every one-Block kernel of a task
# ----------------------------------------------------------------------

ONE_SIDED = ((0, 0), (0, 1), (0, 2))
CROSS_R2 = FIVE_POINT + ((-2, 0), (2, 0), (0, -2), (0, 2))


class TwoCellRing(JacobiSGrid):
    """An SGrid Env inside a two-cell ring: ``ring="const"`` a non-zero
    Arithmetic ring, ``ring="mirror"`` a Neumann mirror."""

    def _attach_boundary(self, env) -> None:
        n = self.region
        if self.config["ring"] == "const":
            ring = ArithmeticBlock((-2, -2), (n + 4, n + 4),
                                   lambda a: 1.5 + 0.01 * a[0] - 0.02 * a[1], name="ring")
        else:
            def mirror(a):
                return GlobalAddress((min(max(a[0], 0), n - 1), min(max(a[1], 0), n - 1)))
            ring = ReferenceBlock((-2, -2), (n + 4, n + 4), mirror, name="ring")
        env.add_boundary_block(ring)


RINGS = {
    "dirichlet": (JacobiSGrid, dict(SGRID, boundary_value=0.25)),
    "neumann": (JacobiSGrid, dict(SGRID, boundary="neumann")),
    "two-cell-const": (TwoCellRing, dict(SGRID, ring="const")),
    "two-cell-mirror": (TwoCellRing, dict(SGRID, ring="mirror")),
}
ONE_PASS_CASES = [
    (ring, name, stencil)
    for ring in RINGS
    for name, stencil in (("5-point", FIVE_POINT), ("9-point", tuple(NINE_POINT)),
                          ("one-sided", ONE_SIDED), ("radius-2", CROSS_R2))
    if ring.startswith("two-cell") or name in ("5-point", "9-point")
]


def one_pass(env, blocks, offsets):
    """The plans of one compile pass over ``blocks``: the first Block's
    returned, every other one's staged on the MMAT."""
    plans = [compile_offsets_plan(env, blocks[0], offsets, siblings=blocks[1:])]
    return plans + [env.mmat.take_staged(block.block_id, offsets) for block in blocks[1:]]


def assert_same_tables(plan, alone):
    """``plan`` (of a pass) holds the tables ``alone`` (a one-Block compile
    of the same Block) holds."""
    assert plan.block is alone.block and plan.offsets == alone.offsets
    counts = ("n_sites", "in_block_sites", "resolved_sites", "out_of_block_sites")
    assert [getattr(plan, c) for c in counts] == [getattr(alone, c) for c in counts]
    assert plan.slices == alone.slices and plan.remote_pages() == alone.remote_pages()
    assert len(plan.segments) == len(alone.segments)
    for seg, ref in zip(plan.segments, alone.segments):
        assert seg.image is ref.image and seg.sources == ref.sources
        assert np.array_equal(seg.src_idx, ref.src_idx) and np.array_equal(seg.dst_idx, ref.dst_idx)
    for name in ("const_dst", "const_vals"):
        mine, theirs = getattr(plan, name), getattr(alone, name)
        assert (mine is None) == (theirs is None)
        assert mine is None or (mine.dtype == theirs.dtype and np.array_equal(mine, theirs))


class TestOnePassCompile:
    @pytest.mark.parametrize("ranks", [1, 2, 3])
    @pytest.mark.parametrize("ring,name,stencil", ONE_PASS_CASES,
                             ids=[f"{r}-{n}" for r, n, _ in ONE_PASS_CASES])
    def test_every_plan_of_a_pass_matches_the_reference(self, ring, name, stencil, ranks):
        app_cls, config = RINGS[ring]
        env = rank0_env(app_cls, config, ranks)
        blocks = env.data_blocks()
        assert len(blocks) > 1 and (ranks == 1) != any(
            isinstance(b, BufferOnlyBlock) for b in env.data_blocks(include_buffer_only=True)
        )
        plans = one_pass(env, blocks, stencil)
        assert not env.mmat.plans  # staged, not entered
        for block, plan in zip(blocks, plans):
            assert plan.block is block
            assert_same_tables(plan, compile_offsets_plan(env, block, stencil))
            addresses, ring_flags = offset_sites(block, stencil)
            assert_plan_matches_reference(env, block, lambda: plan, addresses, ring_flags)


# ----------------------------------------------------------------------
# (d) compile cost: at most one search step per resolved address
# ----------------------------------------------------------------------

def test_compiling_a_64_block_env_costs_one_step_per_resolved_address():
    app = JacobiSGrid(dict(region=64, block_size=8, page_elements=16))
    app.bind_platform(Platform(mmat=True))
    app.initialize()
    env = app.env
    blocks = env.data_blocks()
    assert len(blocks) == 64
    five_point = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    before = (env.stats.searches, env.stats.search_steps)
    plans = [compile_offsets_plan(env, block, five_point) for block in blocks]
    resolved = sum(plan.resolved_sites for plan in plans)
    assert resolved == 64 * 4 * 8
    assert env.stats.searches - before[0] == resolved
    assert env.stats.search_steps - before[1] <= resolved
    assert env.mmat.hits == env.mmat.misses == len(env.mmat) == 0
