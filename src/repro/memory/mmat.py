"""MMAT — Memorization of Memory Access Type — and compiled access plans.

"The platform has a function called Memorization of memory access type
(MMAT) that automates to omit Env searches […] by memorizing for each
access, whether in- or out-of Block access, it is possible to omit Env
search overheads." (§III-B6)

The memo is keyed by ``(start block id, relative coordinates of the
requested address with respect to that block's origin)`` — i.e. one
entry per *access site as seen from a block*.  Because Assumption II
says the memory-access pattern is static across iterations, the second
and later iterations resolve almost every access from the memo instead
of searching the Env tree.

Access plans push the same assumption one step further: the sites of a
whole-block sweep — or of a tile of Blocks — are resolved *in bulk* and
compiled into a handful of NumPy index arrays.  A compile is a *pass*:
the distinct addresses of all its sites are located with one
:meth:`~repro.memory.env.Env.locate_boxes` (O(1) per address) and
resolved once, however many start Blocks a tile has — and a task's
one-Block kernels sweeping one stencil compile all their plans in one
pass (:func:`compile_offsets_plan`'s ``siblings``), each Block's plan
entering the MMAT when that Block first asks (:meth:`MMAT.stage`).
The plan *is* the memorization of its sites: a compile neither reads nor
fills the scalar memo, which only scalar ``read_from`` calls fill, on
first use.  A plan holds one merged gather table per array of the Env's
dense read image, i.e. one for all locally-owned source Blocks and one
for all Buffer-only ones, plus a precomputed constant table for
Arithmetic/Static boundary sites; the sites of a stencil offset that
stay inside the Block are not enumerated at all but kept as one pair of
array slices.
The whole sweep then executes as bulk array operations instead of
``size_x * size_y`` scalar ``get`` calls.  Plans are cached on the
:class:`MMAT` instance, so :meth:`MMAT.reset` — called by the warm-up
macro, or by end users when the access pattern changes — invalidates
the compiled plans together with the scalar memo.

MMAT does **not** detect access-pattern changes; end users must call
:meth:`MMAT.reset` when the pattern changes (the annotation library's
warm-up macro does this automatically, matching the paper's
"previously collected information at MMAT is cleared when the warm-up
macro is called").
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .address import global_addresses
from .block import DataBlock, ReferenceBlock, inside_box
from .errors import AddressError
from .page import PageKey

__all__ = [
    "MMAT",
    "AccessPlan",
    "PlanSegment",
    "compile_offsets_plan",
    "compile_address_plan",
    "as_tile",
    "site_cuts",
    "stencil_table",
    "sorted_unique",
]


def _gather_rows(env, out: np.ndarray, sites, rows: np.ndarray, idx) -> None:
    """``out[sites] = rows[idx]`` as one ``np.take`` into the thread's MMAT
    scratch and one store through 1-D views whose items are whole rows:
    fancy get and set on ``(n, components)`` arrays cost about twice as
    much.  Every table with ``dst_idx`` runs this."""
    vals = env.mmat.scratch("rows", (idx.size, rows.shape[1]), rows.dtype)
    np.take(rows, idx, axis=0, out=vals, mode="clip")  # idx range-checked when built
    if vals.dtype == out.dtype:  # else a casting store (a table of another class)
        if out.shape[1] > 1:  # a row as one item
            row = np.dtype((np.void, out.dtype.itemsize * out.shape[1]))
            out, vals = out.view(row), vals.view(row)
        out, vals = out.reshape(-1), vals.reshape(-1)
    out[sites] = vals


class PlanSegment:
    """One merged gather table of an :class:`AccessPlan`: sites that read
    one image class of the dense read image
    (:class:`~repro.memory.env.DenseImage`) — owned rows and ghost rows
    alike — however many Blocks (``sources``) they land in.

    ``src_idx`` is, per site, an owned image row, or a Buffer-only halo
    row ``h`` as ``-1 - h``: :meth:`rows` aims these ``ghost_sites`` at
    the tail once per image ``layout``.  ``dst_idx`` are the matching
    flat output sites, or None for a *dense* table, a row per output site
    in order (address plans: constants' and other classes' sites read a
    placeholder row, patched afterwards).
    """

    __slots__ = ("image", "sources", "src_idx", "dst_idx", "ghost_sites", "_aim")

    def __init__(self, image, sources, src_idx, dst_idx=None):
        self.image = image
        #: The Blocks whose image rows the table reads.
        self.sources = list(sources)
        self.src_idx = np.ascontiguousarray(src_idx, dtype=np.intp)
        self.dst_idx = None if dst_idx is None else np.ascontiguousarray(dst_idx, dtype=np.intp)
        self.ghost_sites = np.flatnonzero(self.src_idx < 0)
        #: ``(image layout, rows, covered)`` of :meth:`rows`.
        self._aim: tuple = (None, self.src_idx, False)

    @property
    def halo(self) -> bool:
        """Whether any site reads a Buffer-only Block's ghost row."""
        return bool(self.ghost_sites.size)

    @property
    def ghost_halo(self) -> np.ndarray:
        """The halo rows the ghost sites read."""
        return -1 - self.src_idx[self.ghost_sites]

    def rows(self) -> Tuple[np.ndarray, bool]:
        """``(slab row per site, covered)`` under the image's current ghost
        numbering; covered: every ghost row is in the tail's pushed part."""
        image, aim = self.image, self._aim
        if aim[0] != image.layout:
            rows, covered = self.src_idx, True
            if self.ghost_sites.size:
                ghosts = image.ghost_index(self.ghost_halo)
                rows = rows.copy()
                rows[self.ghost_sites] = ghosts
                covered = int(ghosts.max()) < image.ghost_base + image.pushed
            aim = self._aim = (image.layout, rows, covered)
        return aim[1], aim[2]

    def with_sites(self, dst_idx, keep) -> "PlanSegment":
        """The same table restricted to sites ``keep``, written to ``dst_idx``
        (fused kernels: one padded-field cell per distinct address)."""
        return PlanSegment(self.image, self.sources, self.src_idx[keep], dst_idx)

    def gather(self, env, out: np.ndarray) -> None:
        """Fill this table's sites of ``out`` from its image's read slab,
        ghost tail included (:meth:`Env.fill_ghosts` made that current)."""
        rows = self.rows()[0]
        if self.dst_idx is None:
            # mode="clip": indices were range-checked at compile time, and
            # the default mode would buffer ``out``.
            np.take(self.image.read, rows, axis=0, out=out, mode="clip")
        else:
            _gather_rows(env, out, self.dst_idx, self.image.read, rows)

    @property
    def nbytes(self) -> int:
        held = (self.src_idx, self._aim[1], self.dst_idx, self.ghost_sites)
        return sum({id(arr): arr.nbytes for arr in held if arr is not None}.values())


#: Monotonic version numbers handed to every compiled plan: a recompiled
#: plan (after ``MMAT.reset``) gets a new version, so caches keyed by the
#: version (the fused-kernel cache) can never confuse it with its
#: predecessor even if the plan object's id is reused.
_PLAN_VERSIONS = itertools.count(1)


class AccessPlan:
    """A compiled whole-block access pattern, executable as bulk NumPy ops."""

    __slots__ = (
        "shape",
        "n_sites",
        "components",
        "dtype",
        "segments",
        "const_dst",
        "const_vals",
        "in_block_sites",
        "resolved_sites",
        "out_of_block_sites",
        "kind",
        "version",
        "offsets",
        "block",
        "slices",
        "own_rows",
        "pages",
        "halo_segments",
    )

    def __init__(
        self,
        *,
        block: DataBlock,
        n_sites: int,
        segments: List[PlanSegment],
        const_dst: Optional[np.ndarray],
        const_vals: Optional[np.ndarray],
        in_block_sites: int,
        resolved_sites: int,
        out_of_block_sites: int,
        kind: str = "offsets",
        offsets: Optional[Tuple[Tuple[int, ...], ...]] = None,
        slices: Tuple[Optional[Tuple[tuple, tuple]], ...] = (),
        pages: list = (),
    ) -> None:
        #: The Block the plan was compiled for (the start of every access;
        #: the first Block of a tile plan).
        self.block = block
        self.shape = block.shape
        self.n_sites = int(n_sites)
        self.components = block.components
        self.dtype = np.dtype(block.buffer.read_buffer.dtype)
        #: Merged gather tables — one per image class — for the sites that
        #: leave the Block (an offsets plan's ring) or, for address plans,
        #: for every site.
        self.segments = segments
        #: The tables that read ghost rows.
        self.halo_segments = [seg for seg in segments if seg.halo]
        #: ``(PageKey, Block)`` of every Buffer-only page the ghost sites read.
        self.pages = list(pages)
        self.const_dst = const_dst
        self.const_vals = const_vals
        #: Sites served by the start Block itself (the scalar path's
        #: "surely inside" / in-block reads).
        self.in_block_sites = int(in_block_sites)
        #: Sites that required an Env resolution at compile time — the
        #: sites the scalar path would serve from the MMAT memo.
        self.resolved_sites = int(resolved_sites)
        self.out_of_block_sites = int(out_of_block_sites)
        #: How the plan was compiled: ``"offsets"`` (site order is
        #: offset-major over the block's elements) or ``"addresses"``
        #: (the sites of an indirect address table, a 2-D one's column by
        #: column — :func:`compile_address_plan`).
        self.kind = str(kind)
        #: Monotonic compile version; caches keyed by it (fused kernels)
        #: are implicitly invalidated when the plan is recompiled.
        self.version = next(_PLAN_VERSIONS)
        #: The normalized stencil offsets of an offsets plan (None for
        #: address plans); the fusion pass needs them to lay out its
        #: padded scratch field.
        self.offsets = offsets
        #: The in-block part of an offsets plan in closed form: per
        #: offset one ``(dst_slices, src_slices)`` pair (None when no
        #: site of that offset stays inside), copied as array slices of
        #: the Block's own read buffer.  Empty for address plans.
        self.slices = slices
        #: The owned image rows, as a slice, of a plan that is nothing but
        #: consecutive rows in order (a tile reading its own elements):
        #: executing it is that slice, not a gather.  Not for a single-
        #: buffered class, whose stores land in the rows it reads.
        self.own_rows: Optional[slice] = None
        if len(segments) == 1 and const_dst is None and segments[0].dst_idx is None:
            rows = segments[0].src_idx  # a dense table: image rows, one per site
            double = segments[0].image.depth > 1
            if rows.size and double and np.array_equal(rows, rows[0] + np.arange(rows.size)):
                self.own_rows = slice(int(rows[0]), int(rows[0]) + rows.size)

    # ------------------------------------------------------------------
    @property
    def has_halo(self) -> bool:
        """Whether any segment gathers from a Buffer-only (halo) source."""
        return bool(self.halo_segments)

    def covered(self) -> bool:
        """Whether every ghost row the plan reads is a pushed one."""
        return all(seg.rows()[1] for seg in self.halo_segments)

    # ------------------------------------------------------------------
    def execute(self, env, read: int = 0) -> np.ndarray:
        """Run the plan against the Env's current read buffers.

        Returns a ``(n_sites, components)`` array in plan site order: one
        ``np.take`` per table — per image class, ghost rows included —
        then the constants and the in-block slice part.  The ghost rows
        are made current first (:meth:`~repro.memory.env.Env.fill_ghosts`:
        pages not valid yet are recorded in ``env.missing_pages``, and the
        step is re-executed, exactly as on the scalar path).

        The returned array is scratch of the Env's MMAT, one per calling
        thread, ``read`` and output shape.  A kernel passes how many
        batched reads its body made before this one, so the results of
        one body never alias while the next body (its count starts over)
        reuses the arrays; a bare ``execute(env)`` is read 0, overwritten
        by the thread's next bare execute of a plan of this shape.  A
        plan that is one run of owned rows (``own_rows``) returns those
        rows of the read generation themselves as a *read-only* view: a
        caller that would update the result in place takes its ``.copy()``.
        """
        if self.own_rows is not None:
            out = self.segments[0].image.read[self.own_rows]
            out.flags.writeable = False
            self.account(env, 0)
            return out
        out = env.mmat.scratch(read, (self.n_sites, self.components), self.dtype)
        missing = env.fill_ghosts(self)
        # A dense table (first) writes every site; the constants and the
        # other tables then overwrite theirs.
        for seg in self.segments:
            seg.gather(env, out)
        if self.const_dst is not None:
            out[self.const_dst] = self.const_vals
        if self.slices:
            cell = self.shape + (self.components,)
            src = env.dense_read(self.block).reshape(cell)
            dst = out.reshape((len(self.slices),) + cell)
            for oi, pair in enumerate(self.slices):
                if pair is not None:
                    dst[oi][pair[0]] = src[pair[1]]
        self.account(env, missing)
        return out

    def account(self, env, missing: int) -> None:
        """Credit one full execution of this plan to the Env's counters."""
        stats = env.stats
        stats.reads += self.n_sites
        stats.in_block_reads += self.in_block_sites
        stats.mmat_hits += self.resolved_sites
        stats.missing_recorded += missing

    # ------------------------------------------------------------------
    def remote_pages(self) -> List[PageKey]:
        """Page keys of every Buffer-only page this plan reads (halo set)."""
        return [key for key, _ in self.pages]

    @property
    def nbytes(self) -> int:
        """Memory held by the plan's index/constant arrays (Fig. 12 bench);
        the in-block slice part holds none."""
        total = sum(seg.nbytes for seg in self.segments)
        if self.const_dst is not None:
            total += self.const_dst.nbytes + self.const_vals.nbytes
        return total


# ----------------------------------------------------------------------
# plan compilation
# ----------------------------------------------------------------------

#: Reference blocks followed before a chain counts as too deep.
_MAX_REFERENCE_DEPTH = 4


def sorted_unique(values: np.ndarray, *, inverse: bool = False):
    """The sorted distinct items of ``values`` — integers, or the rows of
    a 2-D array — and, with ``inverse``, the index of each item's value in
    them: one sort and one comparison of neighbours.  The platform's every
    "distinct" goes through here: plain ``np.unique(x)`` and its ``axis=``
    form import ``numpy.ma`` on first use (NumPy 2.4: ≈16 ms a process)."""
    rows = values.ndim == 2
    if rows or inverse:
        order = np.lexsort(values.T[::-1]) if rows else np.argsort(values)
        ordered = values[order]
    else:
        ordered = np.sort(values)
    step = np.empty(len(values), dtype=bool)
    step[:1] = True
    differ = ordered[1:] != ordered[:-1]
    step[1:] = differ.any(axis=1) if rows else differ
    if not inverse:
        return ordered[step]
    inv = np.empty(len(values), dtype=np.intp)
    inv[order] = np.cumsum(step) - 1
    return ordered[step], inv


def site_cuts(blocks: Sequence[DataBlock], n_sites: int) -> List[int]:
    """Where a tile's table of ``n_sites`` changes start Block: the sites
    ``cuts[b]:cuts[b + 1]`` start from ``blocks[b]``.  The table is
    element-major — equally many sites for every element, Block after
    Block — so a one-Block table may hold any number of sites."""
    total = sum(block.element_count for block in blocks)
    if n_sites % total and len(blocks) > 1:
        raise AddressError(
            f"a table of {n_sites} sites does not list the {total} elements of "
            f"a tile of {len(blocks)} Blocks evenly"
        )
    cuts = [0]
    for block in blocks:
        cuts.append(cuts[-1] + block.element_count * n_sites // total)
    return cuts


def stencil_table(blocks: Sequence[DataBlock], offsets) -> np.ndarray:
    """The ``(elements, len(offsets))`` table of addresses (coordinates on
    a last axis, for N-D Blocks): every element of ``blocks``, Block
    after Block in row-major order, at each offset."""
    cells = [np.indices(b.shape).reshape(b.ndim, -1).T + np.array(b.origin) for b in blocks]
    table = np.concatenate(cells)[:, None, :] + np.array(offsets, dtype=np.int64)
    return table[..., 0] if blocks[0].ndim == 1 else table


def _locate(env, blocks, cuts, distinct: np.ndarray, site_key: np.ndarray, away: np.ndarray):
    """The Block serving each distinct address that the sites of mask
    ``away`` read from outside their own start Block, as its position in
    ``env.box_blocks``: one bulk Env search for the whole pass.  A site's
    address is ``distinct[site_key[site]]``.

    An address that overlapping Blocks hold (ambiguous) is searched from
    the start Block of every site that reads it, as the scalar path
    would; sites whose start finds another Block than the first one's
    get a key of their own, appended to ``distinct`` (``site_key`` is
    updated).  Returns ``(distinct, found)``."""
    found, ambiguous = env.locate_boxes(distinct, starts=blocks)
    if ambiguous.any():
        sites = np.flatnonzero(away)
        inv = site_key[sites]
        reads = np.flatnonzero(ambiguous[inv])
        start = np.searchsorted(cuts, sites[reads], side="right") - 1
        pairs, pair_of = sorted_unique(inv[reads] * len(blocks) + start, inverse=True)
        searched: set = set()
        extra: List[Tuple[int, int]] = []
        for j, code in enumerate(pairs.tolist()):
            key, k = divmod(code, len(blocks))
            hit = env.find_block(tuple(distinct[key].tolist()), start=blocks[k])
            at = -1 if hit is None else env.box_position(hit)
            if key not in searched:
                searched.add(key)
                found[key] = at
            elif at != found[key]:
                site_key[sites[reads[pair_of == j]]] = distinct.shape[0] + len(extra)
                extra.append((key, at))
        if extra:
            distinct = np.concatenate([distinct, distinct[[key for key, _ in extra]]])
            found = np.concatenate([found, np.array([at for _, at in extra], dtype=np.intp)])
    if (found < 0).any():  # name the first such address in site order
        inv = site_key[away]
        key = inv[np.flatnonzero(found[inv] < 0)[0]]
        raise AddressError(
            f"no block of Env {env.name!r} contains address {tuple(distinct[key].tolist())}"
        )
    return distinct, found


def _follow_reference(env, ref: ReferenceBlock, addrs: np.ndarray):
    """Map ``addrs`` through a Reference block: ``(mapped addresses, the
    positions of their Blocks in env.box_blocks)``."""
    mapped = [tuple(ref.mapper(a)) for a in global_addresses(addrs)]
    mapped_arr = np.asarray(mapped, dtype=np.int64).reshape(len(mapped), -1)
    found = np.full(len(mapped), -1, dtype=np.intp)
    direct = ref.target
    if direct is not None:
        inside = np.fromiter(map(direct.contains, mapped), dtype=bool, count=len(mapped))
        found[inside] = env.box_position(direct)
    rest = np.flatnonzero(found < 0)
    if rest.size:
        found[rest] = env.locate_blocks(mapped_arr[rest], start=env.root)
        bad = rest[found[rest] < 0]
        if bad.size:
            raise AddressError(
                f"reference block {ref.name!r} cannot resolve mapped address {mapped[bad[0]]}"
            )
    return mapped_arr, found


def _resolve(env, components: int, addrs: np.ndarray, found: np.ndarray, sources: list):
    """Resolve distinct global addresses, located in the Blocks ``found``
    (positions in ``env.box_blocks``), in bulk.

    Returns ``(group, src, const_vals)``: address ``k`` is read from
    element ``src[k]`` of the Data Block ``sources[group[k]]``, or, where
    ``group[k] == -1``, is the compile-time constant in row ``src[k]`` of
    ``np.concatenate(const_vals)``, a list of ``(m, components)`` arrays.
    Blocks met for the first time are appended to ``sources``, in Block
    id order.

    Reference blocks are followed through their (static) address mapping
    so mirror/Neumann boundaries compile down to gathers on the mapped
    interior Block; Arithmetic and Static blocks are evaluated once at
    compile time, each group of their addresses with one ``read_many``
    (their value is a pure function of the address — Assumption II
    makes the result valid for every later iteration).
    """
    n = addrs.shape[0]
    blocks = env.box_blocks(addrs.shape[1])
    source_index = {block.block_id: k for k, block in enumerate(sources)}
    const_vals: List[np.ndarray] = []
    n_const = 0
    group = np.empty(n, dtype=np.intp)
    src = np.empty(n, dtype=np.intp)

    pending = [(np.arange(n), addrs, found)]
    depth = 0
    while pending:
        if len(pending) > 1:
            pending = [tuple(np.concatenate(part) for part in zip(*pending))]
        (pos, addrs, found), pending = pending[0], []
        order = np.argsort(found, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(found[order])) + 1)
        # Block by Block in id order, the order ``sources`` grows in.
        for sel in sorted(groups, key=lambda sel: blocks[found[sel[0]]].block_id):
            target = blocks[found[sel[0]]]
            where, at = pos[sel], addrs[sel]
            if isinstance(target, DataBlock):
                k = source_index.get(target.block_id)
                if k is None:
                    k = source_index[target.block_id] = len(sources)
                    sources.append(target)
                group[where] = k
                src[where] = np.ravel_multi_index(
                    tuple((at - np.asarray(target.origin, dtype=np.int64)).T), target.shape
                )
            elif isinstance(target, ReferenceBlock):
                if depth >= _MAX_REFERENCE_DEPTH:
                    raise AddressError(
                        f"reference chain at {tuple(at[0].tolist())} too deep to "
                        f"compile into an access plan"
                    )
                pending.append((where,) + _follow_reference(env, target, at))
            else:
                group[where] = -1
                src[where] = np.arange(n_const, n_const + len(sel))
                n_const += len(sel)
                const_vals.append(
                    np.broadcast_to(target.read_many(at), (len(sel), components))
                )
        depth += 1
    return group, src, const_vals


#: Widest bounding box, per listed address, whose distinct addresses are
#: told apart by a table over the box rather than by sorting.
_TABLE_SPREAD = 4


def _distinct(addrs: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(distinct, inv)`` of the addresses ``addrs[rows]`` (``rows``: a
    mask) of an ``(n, ndim)`` array: the distinct ones, and per masked row
    the index of its address in ``distinct``.  Addresses are told apart by
    flat index in the bounding box of ``addrs``: through a table over the
    box, in O(n), where the box is at most :data:`_TABLE_SPREAD` times as
    wide as the masked rows are many, else by sorting."""
    # Column by column: a reduction over axis 0 of an (n, 2) array runs
    # n inner loops of two.
    lo = np.array([addrs[:, d].min() for d in range(addrs.shape[1])])
    dims = [int(addrs[:, d].max() - lo[d] + 1) for d in range(addrs.shape[1])]
    width = math.prod(dims)
    if width >= 1 << 62:  # flat indices would overflow: sort whole rows
        return sorted_unique(addrs[rows], inverse=True)
    keys = addrs[:, 0][rows]  # a copy: a masked read
    keys -= lo[0]
    for d in range(1, len(dims)):
        keys *= dims[d]
        keys += addrs[:, d][rows]
        keys -= lo[d]
    if width > _TABLE_SPREAD * keys.size:
        codes, inv = sorted_unique(keys, inverse=True)
    else:
        seen = np.zeros(width, dtype=bool)
        seen[keys] = True
        codes = np.flatnonzero(seen)
        del seen
        rank = np.empty(width, dtype=np.intp)
        rank[codes] = np.arange(codes.size)
        for s in range(0, keys.size, 1 << 16):  # the keys become ``inv`` in place
            keys[s : s + (1 << 16)] = rank[keys[s : s + (1 << 16)]]
        inv = keys
    return np.stack(np.unravel_index(codes, dims), axis=1) + lo, inv


def _ghost_pages(env, segments: List[PlanSegment]) -> list:
    """``(PageKey, Block)`` of every Buffer-only page the ghost sites of
    ``segments`` read."""
    pages = []
    for seg in (seg for seg in segments if seg.halo):
        blocks, which, elements = env.halo_row_blocks(seg.image, seg.ghost_halo)
        page_elements = np.array([b.page_elements for b in blocks], dtype=np.intp)
        stride = max(b.page_count() for b in blocks)
        for code in sorted_unique(which * stride + elements // page_elements[which]).tolist():
            block = blocks[code // stride]
            pages.append((PageKey(block.block_id, code % stride), block))
    return pages


def _compile(env, starts, cuts, plans, addrs: np.ndarray, sites: Optional[np.ndarray], *,
             columns: Optional[Tuple[int, int]] = None) -> List[dict]:
    """Compile, in one pass, the plans ``plans`` — each the run ``(first,
    end)`` of the start Blocks ``starts`` its sites start from: the listed
    ``sites`` (None: every output, in order) read the global ``addrs``,
    those in ``cuts[b]:cuts[b + 1]`` from ``starts[b]``.  Returns per plan
    the :class:`AccessPlan` keywords of its tables, ``in_block`` the sites
    that read their own start Block.  ``columns`` ``(elements, k)`` lays a
    one-plan pass's table out column-major.

    A site whose address lies in its own start Block reads it without a
    search (checked a Block at a time, as one comparison).  The addresses
    of all the other sites of the pass are made distinct
    (:func:`_distinct`), located with one bulk Env search (:func:`_locate`)
    and resolved once (:func:`_resolve`), then fanned back out to each
    plan's sites, so the cost scales with the pass's *distinct* addresses,
    not with its sites, start Blocks or plans.  Every plan gets the tables
    a pass of its own would give it.

    A plan's sites of all sources of one image class — owned and
    Buffer-only, which read its ``owned ∥ ghost`` array — are merged into
    one :class:`PlanSegment`.  ``sites`` None makes the table of the
    tile's own image class dense.
    """
    n = addrs.shape[0]
    # An offsets plan's listed ring reads outside its start Block.
    home = np.zeros(n, dtype=bool)
    for k, (lo, hi) in enumerate(zip(cuts, cuts[1:]) if sites is None else ()):
        home[lo:hi] = inside_box(addrs[lo:hi], starts[k].origin, starts[k].shape)
    # Every site as a row of its table's image array (a Buffer-only
    # element's halo row ``h`` as ``-1 - h``, see PlanSegment; constants, in
    # table -1: as a row of ``const_all``).  Until a plan fills them in, the
    # sites read from away hold the index of their distinct address.
    site_row = np.empty(n, dtype=np.intp)
    site_table = np.empty(n, dtype=np.int8)
    found: List[DataBlock] = []  # the Data Blocks the away addresses resolve to
    resolved = not home.all()
    if resolved:
        away = ~home
        distinct, site_row[away] = _distinct(addrs, away)
        distinct, boxes = _locate(env, starts, cuts, distinct, site_row, away)
        group, src, const_vals = _resolve(env, starts[0].components, distinct, boxes, found)
        del away, distinct, boxes
        # Each distinct address's row: its Block's first row plus its
        # element (minus, for a halo row), or its row of ``const_all``.
        slots = [env.image_slot(block) for block in found]
        base = np.array([-1 - s[1] if s[3] else s[1] for s in slots] + [0], dtype=np.intp)
        sign = np.array([-1 if s[3] else 1 for s in slots] + [1], dtype=np.intp)
        key_row = base[group] + sign[group] * src
        const_all = np.concatenate(const_vals) if const_vals else None
    compiled = []
    for first, end in plans:
        tile, lo, hi = starts[first:end], cuts[first], cuts[end]
        spans = list(zip(cuts[first:end], cuts[first + 1 : end + 1]))  # per start Block
        # The plan's sources: its own Blocks, then those its away sites
        # read, in the order the resolve met them.  A start Block at a
        # time: the temporaries are one Block's sites, not the tile's.
        sources, read, met = list(tile), set(), {}
        if resolved:
            reached = np.zeros(len(found) + 1, dtype=bool)  # last: the constants
            for a, b in spans:
                reached[group[site_row[a:b][~home[a:b]]]] = True
            position = {block.block_id: k for k, block in enumerate(tile)}
            for g in np.flatnonzero(reached[:-1]).tolist():
                k = position.get(found[g].block_id)
                if k is None:
                    k = len(sources)
                    sources.append(found[g])
                met[g] = k
                read.add(k)
        slots = [env.image_slot(source) for source in sources]
        tables: Dict[int, int] = {}  # image id -> table number
        table_of = [tables.setdefault(id(s[0]), len(tables)) for s in slots]
        if resolved:
            table = np.full(len(found) + 1, -1, dtype=np.int8)
            for g, k in met.items():
                table[g] = table_of[k]
        in_block = 0
        for k, (block, (a, b)) in enumerate(zip(tile, spans)):
            here, rows, tabs = home[a:b], site_row[a:b], site_table[a:b]
            if resolved:
                away = ~here
                keys = rows[away]
                tabs[away] = table[group[keys]]
                rows[away] = key_row[keys]
            (_, row0, row1, halo), mine = slots[k], table_of[k]
            cells = addrs[a:b][here] - np.asarray(block.origin, dtype=np.int64)
            home_rows = row0 + np.ravel_multi_index(tuple(cells.T), block.shape)
            rows[here] = -1 - home_rows if halo else home_rows
            tabs[here] = mine
            if home_rows.size:
                read.add(k)
            # Own rows: the home sites, and any a Reference maps back home.
            in_block += int(np.count_nonzero((tabs == mine) & (rows >= row0) & (rows < row1)))
        rows, tabs = site_row[lo:hi], site_table[lo:hi]
        if columns is not None:  # resolved element-major, laid out column-major
            rows = rows.reshape(columns).T.ravel()
            tabs = tabs.reshape(columns).T.ravel()
        out = None if sites is None else sites[lo:hi]
        sel = np.flatnonzero(tabs == -1)
        const_dst = const_arr = None
        n_const = sel.size
        if n_const:
            const_dst = sel if out is None else np.ascontiguousarray(out[sel], dtype=np.intp)
            const_arr = const_all[rows[sel]].astype(tile[0].buffer.read_buffer.dtype)
        # Address plans (``sites`` None) read the tile's own class densely:
        # that table, made last, is ``rows`` itself, the sites of constants
        # and other classes reading a placeholder row; it writes every
        # site, so it is gathered first.
        own = tables.get(id(slots[0][0])) if sites is None else None
        segments: List[PlanSegment] = []
        for t in sorted(tables.values(), key=lambda t: t == own):
            members = [k for k in sorted(read) if table_of[k] == t]
            if not members:
                continue
            image, members = slots[members[0]][0], [sources[k] for k in members]
            if t == own:
                rows[tabs != own] = 0
                segments.insert(0, PlanSegment(image, members, rows))
                continue
            sel = np.flatnonzero(tabs == t)
            segments.append(PlanSegment(image, members, rows[sel], sel if out is None else out[sel]))
        compiled.append(dict(
            segments=segments,
            const_dst=const_dst,
            const_vals=const_arr,
            in_block=in_block,
            out_of_block_sites=rows.size - n_const - in_block,
            pages=_ghost_pages(env, segments),
        ))
    return compiled


def as_tile(block) -> Tuple[DataBlock, ...]:
    """A Block, or a tile (a sequence of Blocks), as a tuple of Blocks."""
    return tuple(block) if isinstance(block, (tuple, list)) else (block,)


def _outside(shape: Sequence[int], bounds: Sequence[Tuple[int, int]]) -> np.ndarray:
    """The flat row-major indices, ascending, of the elements of a Block of
    ``shape`` outside the box ``bounds`` (``[lo, hi)`` per axis; an empty
    box leaves every element outside), enumerated from the box's edges:
    the rows before and after it whole, the rows across it by the ring of
    the remaining axes."""
    n = math.prod(shape)
    if any(lo >= hi for lo, hi in bounds):
        return np.arange(n)
    (lo, hi), inner = bounds[0], n // shape[0]
    across = np.empty(0, dtype=np.intp)
    if len(shape) > 1:
        across = (np.arange(lo, hi)[:, None] * inner + _outside(shape[1:], bounds[1:])).ravel()
    return np.concatenate([np.arange(lo * inner), across, np.arange(hi * inner, n)])


def _ring(shape: Tuple[int, ...], offsets) -> tuple:
    """``(sites, cells, slices, slice_sites)`` of a stencil sweep over a
    Block of ``shape``: per offset, the sites that stay inside the Block
    form a box, kept as one ``(dst_slices, src_slices)`` pair (None: no
    such site); only the ring of sites outside it is listed, with the
    addresses they read relative to the Block's origin (``cells``)."""
    nd, n_elem = len(shape), math.prod(shape)
    slices: List[Optional[Tuple[tuple, tuple]]] = []
    ring_sites = [np.empty(0, dtype=np.intp)]
    ring_cells = [np.empty((0, nd), dtype=np.int64)]
    slice_sites = 0
    for oi, off in enumerate(offsets):
        if len(off) != nd:
            raise AddressError(
                f"offset {off} does not match block dimensionality {nd}"
            )
        bounds = [(max(0, -o), min(s, s - o)) for s, o in zip(shape, off)]
        if all(lo < hi for lo, hi in bounds):
            dst = tuple(slice(lo, hi) for lo, hi in bounds)
            src = tuple(slice(lo + o, hi + o) for (lo, hi), o in zip(bounds, off))
            slices.append((dst, src))
            slice_sites += math.prod(hi - lo for lo, hi in bounds)
        else:
            slices.append(None)
        elems = _outside(shape, bounds)
        if elems.size:
            ring_sites.append(oi * n_elem + elems)
            coords = np.stack(np.unravel_index(elems, shape), axis=1)
            ring_cells.append(coords + np.asarray(off, dtype=np.int64))
    return np.concatenate(ring_sites), np.concatenate(ring_cells), tuple(slices), slice_sites


def compile_offsets_plan(env, block, offsets: Sequence[Tuple[int, ...]], *,
                         siblings: Sequence[DataBlock] = ()) -> AccessPlan:
    """Compile a stencil sweep: every element of ``block``, per offset.

    Site order is offset-major (``site = offset_index * element_count +
    linear_element_index``), with elements in the block's row-major
    order, so the executed output reshapes directly to
    ``(len(offsets),) + block.shape``.

    Per offset, the sites that stay inside the Block form a box and are
    kept as one ``(dst_slices, src_slices)`` pair; only the remaining
    ring of out-of-block sites is enumerated and resolved.

    ``siblings`` — more Blocks of ``block``'s image class — compile in the
    same pass (:func:`_compile`: one distinct, one locate, one resolve for
    all their rings); each gets the plan a compile of its own would give
    it, *staged* on ``env.mmat`` (:meth:`MMAT.stage`), not entered:
    the caller enters a sibling's plan when that Block first asks for it.

    A *tile* of several Blocks has no Block-shaped interior to slice: its
    sweep compiles as the address table :func:`stencil_table` (an
    ``"addresses"`` plan), whose column-major output is offset-major too.
    """
    blocks = as_tile(block)
    offsets = tuple(tuple(int(c) for c in off) for off in offsets)
    if len(blocks) > 1:
        return compile_address_plan(env, blocks, stencil_table(blocks, offsets))
    starts = [blocks[0], *siblings]
    shapes: Dict[tuple, tuple] = {}  # Blocks of one shape share their ring
    for start in starts:
        if start.shape not in shapes:
            shapes[start.shape] = _ring(start.shape, offsets)
    rings = [shapes[start.shape] for start in starts]
    cuts = np.cumsum([0] + [ring[0].size for ring in rings]).tolist()
    compiled = _compile(
        env,
        starts,
        cuts,
        [(k, k + 1) for k in range(len(starts))],
        np.concatenate([
            ring[1] + np.asarray(start.origin, dtype=np.int64) for start, ring in zip(starts, rings)
        ]),
        np.concatenate([ring[0] for ring in rings]),
    )
    plans = [
        AccessPlan(
            block=start,
            n_sites=len(offsets) * start.element_count,
            in_block_sites=slice_sites + parts.pop("in_block"),
            resolved_sites=sites.size,
            kind="offsets",
            offsets=offsets,
            slices=slices,
            **parts,
        )
        for start, (sites, _, slices, slice_sites), parts in zip(starts, rings, compiled)
    ]
    for start, plan in zip(siblings, plans[1:]):
        env.mmat.stage(start.block_id, offsets, plan)
    return plans[0]


def compile_address_plan(env, block, addresses) -> AccessPlan:
    """Compile an indirect sweep: arbitrary global addresses per site.

    ``addresses`` is an integer array; for 1-D address spaces any shape
    is accepted, for N-D blocks the last axis must hold the address
    coordinates.  Sites are output in the table's row-major order, a 2-D
    table's — ``(elements, k)`` — column-major (site ``(e, j)`` at ``j *
    elements + e``: each column contiguous).  ``block`` is the start
    Block of every site, or a *tile* — a sequence of Data Blocks of one
    image class — whose element-major table (:func:`site_cuts`) is
    compiled into one plan, each site resolved from its own Block.
    """
    blocks = as_tile(block)
    nd = blocks[0].ndim
    addr_arr = np.asarray(addresses, dtype=np.int64)
    if nd == 1:
        flat = addr_arr.reshape(-1, 1)
    else:
        if addr_arr.shape[-1] != nd:
            raise AddressError(
                f"address array last axis {addr_arr.shape[-1]} does not match "
                f"block dimensionality {nd}"
            )
        flat = addr_arr.reshape(-1, nd)
    n_sites = flat.shape[0]
    table = addr_arr.shape if nd == 1 else addr_arr.shape[:-1]
    (parts,) = _compile(
        env,
        blocks,
        site_cuts(blocks, n_sites),
        [(0, len(blocks))],
        flat,
        None,
        columns=table if len(table) == 2 else None,
    )
    # Indirect accesses carry no static "inside" hint, so the scalar
    # path would resolve *every* site through the memo.
    return AccessPlan(
        block=blocks[0],
        n_sites=n_sites,
        in_block_sites=parts.pop("in_block"),
        resolved_sites=n_sites,
        kind="addresses",
        **parts,
    )

# ----------------------------------------------------------------------
# the memo itself
# ----------------------------------------------------------------------

class MMAT:
    """Per-Env memo of memory-access resolutions plus compiled plans."""

    __slots__ = (
        "enabled",
        "_memo",
        "_plans",
        "_staged",
        "_fused",
        "_scratch",
        "_tiles",
        "hits",
        "misses",
        "resets",
        "plan_compiles",
        "plan_compiles_uncached",
        "plan_executions",
        "plan_exec_sites",
        "fallback_sites",
    )

    def __init__(self, enabled: bool = False) -> None:
        #: MMAT is opt-in: "end-users can use this function by explicitly
        #: enabling it".
        self.enabled = bool(enabled)
        self._memo: Dict[Tuple[int, Tuple[int, ...]], object] = {}
        #: Compiled access plans, keyed by ``(block_id, kind, signature)``.
        self._plans: Dict[tuple, AccessPlan] = {}
        #: Offsets plans a sibling's compile pass made, keyed by ``(block
        #: id, offsets)``: not plans of this MMAT until their Block asks.
        self._staged: Dict[tuple, AccessPlan] = {}
        #: Fused kernels (plan + elementwise fn bound into one kernel),
        #: keyed by ``(plan version, fn identity, dtype)``; cleared
        #: together with the plans.
        self._fused: Dict[tuple, object] = {}
        #: Output arrays of :meth:`AccessPlan.execute`, one per calling
        #: thread, n-th batched read of a kernel body and ``(n_sites,
        #: components, dtype)``: congruent Blocks share one array per
        #: read, two reads of one body never do, nor do hybrid threads
        #: sweeping one Env concurrently.  The fused kernels' padded
        #: fields live here too (read ``"padded"``): one per thread,
        #: padded shape and dtype, whatever the number of Blocks; so do
        #: the rows a gather table takes (read ``"rows"``).
        self._scratch: Dict[tuple, np.ndarray] = {}
        #: Per task: ``(tiles swept, Blocks covered, {boundary reason: n})``.
        self._tiles: Dict[int, Tuple[int, int, Dict[str, int]]] = {}
        self.hits = 0
        self.misses = 0
        self.resets = 0
        self.plan_compiles = 0
        #: Plans compiled for uncached ``gather_global`` calls (no
        #: ``key=``): recompiled every call by design, so they are
        #: counted separately and excluded from plan-coverage numbers.
        self.plan_compiles_uncached = 0
        self.plan_executions = 0
        self.plan_exec_sites = 0
        self.fallback_sites = 0

    # ------------------------------------------------------------------
    def lookup(self, start_block_id: int, relative: Tuple[int, ...]):
        """Return the memorized target block, or None on a miss."""
        if not self.enabled:
            return None
        block = self._memo.get((start_block_id, relative))
        if block is None:
            self.misses += 1
        else:
            self.hits += 1
        return block

    def remember(self, start_block_id: int, relative: Tuple[int, ...], block) -> None:
        """Memorize that accesses at this site resolve to ``block``."""
        if self.enabled:
            self._memo[(start_block_id, relative)] = block

    # ------------------------------------------------------------------
    # compiled plans
    # ------------------------------------------------------------------
    def plan_lookup(self, key: tuple) -> Optional[AccessPlan]:
        """Return the compiled plan for ``key``, or None (compile needed)."""
        if not self.enabled:
            return None
        return self._plans.get(key)

    def plan_store(self, key: tuple, plan: AccessPlan) -> None:
        """Cache a freshly compiled plan (no-op while MMAT is disabled)."""
        if self.enabled:
            self._plans[key] = plan
            self.plan_compiles += 1

    def stage(self, block_id: int, offsets: tuple, plan: AccessPlan) -> None:
        """Keep ``plan``, compiled in another Block's pass, until Block
        ``block_id`` first sweeps ``offsets`` (no-op while disabled)."""
        if self.enabled:
            self._staged[(block_id, offsets)] = plan

    def take_staged(self, block_id: int, offsets: tuple) -> Optional[AccessPlan]:
        """The staged plan of Block ``block_id`` for ``offsets``, handed over
        once (None: none staged) — the caller enters it with :meth:`plan_store`."""
        return self._staged.pop((block_id, offsets), None)

    def drop_staged(self) -> None:
        """Forget every staged plan (the Env's tree changed under them)."""
        self._staged.clear()

    def plan_discard(self, tiles) -> None:
        """Forget the plans of ``tiles`` — ``(first block id, Blocks)``, how
        their keys begin — that are no longer swept as such."""
        for key in list(self._plans):  # hybrid threads may be storing theirs
            if key[:2] in tiles:
                del self._plans[key]

    def scratch(self, read, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """The calling thread's reusable array for the ``read``-th batched
        read of a kernel body, of this shape (zeros when first handed out)."""
        key = (threading.get_ident(), read, shape, dtype)
        out = self._scratch.get(key)
        if out is None:
            out = self._scratch[key] = np.zeros(shape, dtype=dtype)
        return out

    def note_tiles(self, task_id: int, tiles: int, blocks: int, splits: Dict[str, int]) -> None:
        """Task ``task_id`` now sweeps ``blocks`` Blocks as ``tiles`` tiles
        whose boundaries have the reasons ``splits``."""
        self._tiles[task_id] = (tiles, blocks, splits)

    def note_execution(self, plan: AccessPlan) -> None:
        """Account one vectorized plan execution."""
        self.plan_executions += 1
        self.plan_exec_sites += plan.n_sites

    def note_uncached_compile(self) -> None:
        """Account one per-call (uncached) plan compile.

        ``gather_global`` without ``key=`` recompiles every call by
        design; those compiles are tracked here instead of
        ``plan_compiles`` so plan-coverage numbers stay meaningful.
        """
        self.plan_compiles_uncached += 1

    # ------------------------------------------------------------------
    # fused kernels (plan + fn bound into one kernel)
    # ------------------------------------------------------------------
    def fused_lookup(self, key: tuple):
        """Return the cached fused kernel for ``key``, or None."""
        if not self.enabled:
            return None
        return self._fused.get(key)

    def fused_store(self, key: tuple, kernel) -> None:
        """Cache a fused kernel (no-op while MMAT is disabled)."""
        if self.enabled:
            self._fused[key] = kernel

    def note_fallback(self, sites: int) -> None:
        """Account ``sites`` element accesses served by the scalar fallback."""
        self.fallback_sites += int(sites)

    @property
    def plans(self) -> Dict[tuple, AccessPlan]:
        """Read-only view of the compiled plans (used by prefetch advice)."""
        return self._plans

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget every memorized resolution *and* every compiled plan
        (the access pattern changed)."""
        self._memo.clear()
        self._plans.clear()
        self._staged.clear()
        # Fused kernels hold a specific plan's gather tables, so they
        # die with the plans they wrap.
        self._fused.clear()
        self._scratch.clear()
        self.resets += 1

    def __len__(self) -> int:
        return len(self._memo)

    def scratch_bytes(self) -> int:
        """Bytes of the per-thread scratch arrays (batched reads, padded
        fields) and of the fused kernels' ring tables."""
        total = sum(arr.nbytes for arr in list(self._scratch.values()))  # threads may add
        return total + sum(getattr(kern, "nbytes", 0) for kern in self._fused.values())

    def memory_bytes(self) -> int:
        """Rough footprint of the memo table, the compiled plan arrays and
        the scratch (reported in the Fig. 12 bench)."""
        # Key: 2 small ints + tuple overhead; value: pointer.  A compact
        # estimate is sufficient for the memory-usage decomposition.
        total = 120 * len(self._memo) + self.scratch_bytes()
        return total + sum(plan.nbytes for plan in self._plans.values())

    def stats(self) -> dict:
        """Memo and plan statistics (hit-rate, compiled plans, vectorized %)."""
        lookups = self.hits + self.misses
        plan_sites = sum(plan.n_sites for plan in self._plans.values())
        vector_total = self.plan_exec_sites + self.fallback_sites
        tiles = sum(entry[0] for entry in self._tiles.values())
        tile_blocks = sum(entry[1] for entry in self._tiles.values())
        splits: Dict[str, int] = {}
        for _, _, reasons in self._tiles.values():
            splits.update({why: splits.get(why, 0) + n for why, n in reasons.items()})
        if not self.enabled and tile_blocks > tiles:
            # Without plans a tile reads Block by Block on the scalar path.
            splits["mmat off"] = tile_blocks - tiles
        return {
            "enabled": self.enabled,
            "entries": len(self._memo),
            "hits": self.hits,
            "misses": self.misses,
            "resets": self.resets,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "plans": len(self._plans),
            "plan_sites": plan_sites,
            "plan_compiles": self.plan_compiles,
            "plan_compiles_uncached": self.plan_compiles_uncached,
            "fused_kernels": len(self._fused),
            "plan_executions": self.plan_executions,
            "plan_exec_sites": self.plan_exec_sites,
            "fallback_sites": self.fallback_sites,
            "scratch_bytes": self.scratch_bytes(),
            #: Tiles swept, Blocks they cover, why tiles end (reason -> n).
            "tiles": tiles,
            "tile_blocks": tile_blocks,
            "tile_splits": splits,
            #: Fraction of batched accesses actually served by compiled
            #: plans (1.0 = fully vectorized, 0.0 = all scalar fallback).
            "vectorized_fraction": (
                self.plan_exec_sites / vector_total if vector_total else 0.0
            ),
        }
