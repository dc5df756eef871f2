"""Plan fusion: compile an AccessPlan + elementwise fn into one kernel.

A :class:`FusedKernel` wires a compiled offsets plan
(:func:`~repro.memory.mmat.compile_offsets_plan`) and the user's
elementwise sweep ``fn`` into gather + apply + scatter against a single
padded scratch field, instead of materialising the ``(n_offsets,
n_elem)`` gather tensor and re-indexing it per offset:

* the block's own read buffer is *copied once* into the interior of a
  padded field ``P`` — MMAT scratch, one per thread, padded shape and
  dtype, so a sweep over many Blocks keeps one field in cache;
* only the out-of-block plan sites — the boundary "ring": mirror
  boundaries, neighbour blocks, halo pages, compile-time constants,
  which are all an offsets plan's segments hold — are filled through
  precomputed (deduplicated) gather tables, one per image class
  (:meth:`FusedKernel._fill`);
* ``fn`` is applied once, to one contiguous 1-D slice of ``P``'s flat
  buffer per offset: each slice starts at the first interior cell
  shifted by the offset's flat distance and covers whole padded rows of
  axis 0, so NumPy runs one inner loop per operand instead of one per
  Block row.  The lanes that fall on pad columns compute on field
  values too (cells this call filled, or *stamps* copied from an
  interior cell) and are dropped: one strided ``np.copyto`` stores the
  kept lanes into the write buffer (dense-image rows).

The halo a kernel reads is complete before the sweep starts: the
refresh that published or fetched it waited for it.  ``fn`` must be
elementwise over sites — true for every stencil update.

Fused kernels are cached on the :class:`~repro.memory.mmat.MMAT`
keyed ``(plan version, fn identity, dtype)``; ``MMAT.reset()`` clears
them together with the plans, and a recompiled plan's fresh version
implicitly invalidates its old fusions.
"""

from __future__ import annotations

import numpy as np

from ..obs.spans import global_tracer

__all__ = ["FusedKernel", "fused_kernel_for"]


class FusedKernel:
    """One plan + fn fused into one fill, one flat compute and one store."""

    def __init__(self, block, plan) -> None:
        if plan.kind != "offsets" or plan.components != 1:
            raise ValueError(
                f"only single-component offsets plans fuse "
                f"(got {plan.kind!r}, components={plan.components})"
            )
        self.block = block
        self.plan = plan
        shape = plan.shape
        nd = len(shape)
        self.shape = shape
        self.n_elem = int(np.prod(shape))
        self.dtype = plan.dtype
        off_arr = np.asarray(plan.offsets, dtype=np.int64).reshape(-1, nd)
        self._off_arr = off_arr
        pad_lo = tuple(int(max(0, -int(off_arr[:, d].min()))) for d in range(nd))
        pad_hi = tuple(int(max(0, int(off_arr[:, d].max()))) for d in range(nd))
        self.pad_lo = pad_lo
        self.pshape = tuple(shape[d] + pad_lo[d] + pad_hi[d] for d in range(nd))

        # -- flat layout: element e is lane sum(e[d] * pstride[d]) of the
        #    result, read at that lane + start + the offset's flat shift
        pstride = np.cumprod((1,) + self.pshape[:0:-1])[::-1]
        shifts = off_arr @ pstride
        start = int(np.dot(pad_lo, pstride))
        #: The first interior cell: its value stamps the unfilled cells.
        self._start = start
        #: ``P`` is the head of the flat buffer; the block fills its interior.
        self._psize = int(np.prod(self.pshape))
        self._interior = tuple(slice(a, a + n) for a, n in zip(pad_lo, shape))
        #: Lanes of the flat result: whole padded rows of axis 0.
        self._span = shape[0] * int(pstride[0])
        self._slices = [slice(start + k, start + k + self._span) for k in shifts.tolist()]
        #: The kept lanes: ``result.reshape(_rows)[_keep]`` is Block-shaped.
        self._rows = (shape[0],) + self.pshape[1:]
        self._keep = (slice(None),) + tuple(slice(0, n) for n in shape[1:])
        #: The flat buffer's length: the padded field and one padded row of
        #: trailing margin, which the last row's shifted reads may reach.
        self._flat = self._psize + int(pstride[0])

        # -- ring-fill tables (the plan's segments and constants are ----
        #    exactly its out-of-block sites)
        #: The plan's merged tables re-aimed at the padded field's ring
        #: cells, one per image class over its ``owned ∥ ghost`` array,
        #: filled by ``PlanSegment.gather``.
        self.ring_tables = [
            seg.with_sites(*self._ring_positions(seg.dst_idx)) for seg in plan.segments
        ]
        if plan.const_dst is not None:
            pos, first = self._ring_positions(plan.const_dst)
            self.const_pos = pos
            self.const_vals = np.ascontiguousarray(
                plan.const_vals[first, 0], dtype=self.dtype
            )
        else:
            self.const_pos = None
            self.const_vals = None
        #: Cells to stamp before the compute.
        self.stamps = self._stamp_positions()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _ring_positions(self, dst: np.ndarray):
        """Deduplicated padded-field positions of ring sites ``dst``.

        Returns ``(positions, first)``: several sites reading one global
        address share a padded cell — the value there is pure in the
        address it mirrors — so each position keeps the one site
        ``dst[first[k]]``.
        """
        oi = dst // self.n_elem
        ec = np.unravel_index(dst - oi * self.n_elem, self.shape)
        coords = tuple(
            ec[d] + self._off_arr[oi, d] + self.pad_lo[d] for d in range(len(self.shape))
        )
        pos = np.ravel_multi_index(coords, self.pshape)
        uniq, first = np.unique(pos, return_index=True)
        return uniq.astype(np.intp), first

    def _stamp_positions(self) -> np.ndarray:
        """The cells the flat slices read that no fill writes — pad corners
        and margin cells, read only by dropped lanes.  Each sweep copies an
        interior value into them, so every lane computes on field values,
        never on what another kernel left in the shared field."""
        unfilled = np.zeros(self._flat, dtype=bool)
        for sl in self._slices:
            unfilled[sl] = True
        unfilled[: self._psize].reshape(self.pshape)[self._interior] = False
        for seg in self.ring_tables:
            unfilled[seg.dst_idx] = False
        if self.const_pos is not None:
            unfilled[self.const_pos] = False
        return np.flatnonzero(unfilled)

    def _fill(self, env):
        """Make the plan's ghost rows current and fill the calling thread's
        flat padded field: the block's read buffer (a slice of the dense
        image) into the interior, the constant ring cells, an interior value
        into the stamps, and every other ring cell through one gather table
        per image class.  All kernels of a padded shape and dtype compute in
        that field, one after the other; it is per *thread* because hybrid
        threads sweep one signature concurrently.  Returns ``(F, missing)``."""
        missing = env.fill_ghosts(self.plan)
        F = env.mmat.scratch("padded", (self._flat,), self.dtype)
        if self.const_pos is not None:
            F[self.const_pos] = self.const_vals
        own = env.dense_read(self.block)[:, 0].reshape(self.shape)
        F[: self._psize].reshape(self.pshape)[self._interior] = own
        F[self.stamps] = F[self._start]
        ring = F.reshape(self._flat, 1)
        for table in self.ring_tables:
            table.gather(env, ring)
        return F, missing

    @property
    def nbytes(self) -> int:
        """Memory held by the ring tables (Fig. 12 bench)."""
        total = sum(seg.nbytes for seg in self.ring_tables)
        if self.const_pos is not None:
            total += self.const_pos.nbytes + self.const_vals.nbytes
        return total

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def __call__(self, env, fn, trace, work: int) -> None:
        """One fused whole-block sweep, accounted as a plan execution."""
        plan = self.plan
        with global_tracer().span("sweep"):
            F, missing = self._fill(env)
            self._store(self._compute(F, fn))
        plan.account(env, missing)
        env.mmat.note_execution(plan)
        trace.plan_sites += plan.n_sites
        trace.kernel_fused_calls += 1
        trace.updates += work * self.n_elem

    def _compute(self, F: np.ndarray, fn) -> np.ndarray:
        """``fn`` over one contiguous slice of ``F`` per offset: the flat
        result, dropped lanes included (or what ``fn`` broadcasts)."""
        return np.asarray(fn(*[F[sl] for sl in self._slices]))

    def _store(self, res: np.ndarray) -> None:
        """Copy the kept lanes into the write buffer: its image rows."""
        if res.shape == (self._span,):
            res = res.reshape(self._rows)[self._keep]
        rows = self.block.buffer.write_buffer.runs()[0]
        np.copyto(rows.reshape(self.shape), res, casting="unsafe")


def fused_kernel_for(
    env,
    block,
    plan,
    fn,
    *,
    trace=None,
) -> FusedKernel:
    """Cached-or-compiled fused kernel for ``(plan, fn)``.

    ``plan`` is a single-component offsets plan (the caller routes every
    other sweep to gather/apply/scatter).  The cache key includes
    ``plan.version``: a plan recompiled after ``MMAT.reset`` can never
    resurrect a stale kernel.
    """
    mmat = env.mmat
    fn_id = getattr(fn, "__code__", None) or fn
    key = (plan.version, fn_id, plan.dtype)
    kern = mmat.fused_lookup(key)
    if kern is not None:
        return kern
    with global_tracer().span("kernel.fuse", sites=plan.n_sites):
        kern = FusedKernel(block, plan)
    mmat.fused_store(key, kern)
    if trace is not None:
        trace.kernel_fuse += 1
    return kern
