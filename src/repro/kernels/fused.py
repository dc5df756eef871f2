"""Plan fusion: compile an AccessPlan + elementwise fn into one kernel.

A :class:`FusedKernel` wires a compiled offsets plan
(:func:`~repro.memory.mmat.compile_offsets_plan`) and the user's
elementwise sweep ``fn`` into a generated function (see
:mod:`repro.kernels.numpy_src`) that performs gather + apply + scatter
against a single padded scratch field, instead of materialising the
``(n_offsets, n_elem)`` gather tensor and re-indexing it per offset:

* the block's own read buffer is *copied once* into the interior of a
  padded field ``P`` — MMAT scratch, one per thread, padded shape and
  dtype, so a sweep over many Blocks keeps one field in cache;
* only the out-of-block plan sites — the boundary "ring": mirror
  boundaries, neighbour blocks, halo pages, compile-time constants,
  which are all an offsets plan's segments hold — are filled through
  precomputed (deduplicated) gather tables;
* ``fn`` is applied to one shifted **view** of ``P`` per offset, and
  the result is copied once into the write buffer (dense-image rows).

The kernel preserves the overlapped-sweep structure of
``BlockKernel.sweep_segment`` (interior first, halo wait, boundary
rim), and adds multi-step **temporal blocking**: with
``temporal_block=N`` the halo-independent interior is advanced up to
``N`` steps per full gather; the lookahead levels are cached per
absolute step and merged with a recomputed rim on the following steps.
The erosion-based lookahead only ever reads values it computed itself,
so results stay bit-identical to the step-by-step path (``fn`` must be
elementwise and step-invariant — true for every stencil update).

Fused kernels are cached on the :class:`~repro.memory.mmat.MMAT`
keyed ``(plan version, fn identity, dtype, temporal depth)``;
``MMAT.reset()`` clears them together with the plans, and a recompiled
plan's fresh version implicitly invalidates its old fusions.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..obs.spans import global_tracer
from . import CodegenError, resolve_codegen

__all__ = ["FusedKernel", "UNFUSABLE", "fused_kernel_for"]

#: Cache sentinel: this (plan, fn, dtype, temporal) combination cannot be
#: fused — stored so the dispatch does not retry the codegen every sweep.
UNFUSABLE = "unfusable"


def _as_field(res, shape, dtype) -> np.ndarray:
    """Normalise an ``fn`` result to a writable, contiguous block field."""
    arr = np.asarray(res)
    if arr.shape != shape:
        if arr.size == int(np.prod(shape)):
            arr = arr.reshape(shape)
        else:
            arr = np.broadcast_to(arr, shape)
    if not (arr.flags.c_contiguous and arr.flags.writeable):
        arr = np.array(arr, dtype=dtype)
    return arr


class FusedKernel:
    """One plan + fn fused into generated gather/apply/scatter code."""

    def __init__(self, block, plan, temporal: int, codegen) -> None:
        if plan.kind != "offsets" or plan.offsets is None:
            raise CodegenError(
                f"only offsets plans can be fused (got {plan.kind!r})"
            )
        if plan.components != 1:
            raise CodegenError(
                f"fusion supports single-component blocks "
                f"(got components={plan.components})"
            )
        self.block = block
        self.plan = plan
        self.temporal = max(int(temporal), 1)
        shape = plan.shape
        nd = len(shape)
        self.shape = shape
        self.n_elem = n_elem = int(np.prod(shape))
        self.dtype = plan.dtype
        off_arr = np.asarray(plan.offsets, dtype=np.int64)
        if off_arr.ndim != 2 or off_arr.shape[1] != nd:
            raise CodegenError(f"malformed offsets {plan.offsets!r}")
        self._off_arr = off_arr
        pad_lo = tuple(int(max(0, -int(off_arr[:, d].min()))) for d in range(nd))
        pad_hi = tuple(int(max(0, int(off_arr[:, d].max()))) for d in range(nd))
        self.pad_lo = pad_lo
        self.pshape = tuple(shape[d] + pad_lo[d] + pad_hi[d] for d in range(nd))
        self._interior_slices = tuple(
            slice(pad_lo[d], pad_lo[d] + shape[d]) for d in range(nd)
        )
        self._view_slices = [
            tuple(
                slice(
                    pad_lo[d] + int(off_arr[oi, d]),
                    pad_lo[d] + int(off_arr[oi, d]) + shape[d],
                )
                for d in range(nd)
            )
            for oi in range(off_arr.shape[0])
        ]

        # -- ring-fill tables (the plan's segments and constants are ----
        #    exactly its out-of-block sites)
        #: The plan's merged tables re-aimed at the padded field's ring
        #: cells: ``(owned, halo)``, filled by ``PlanSegment.gather``.
        self.ring_tables = tuple(
            [seg.with_sites(*self._ring_positions(seg.dst_idx)) for seg in part]
            for part in plan.split()
        )
        if plan.const_dst is not None:
            pos, first = self._ring_positions(plan.const_dst)
            self.const_pos = pos
            self.const_vals = np.ascontiguousarray(
                plan.const_vals[first, 0], dtype=self.dtype
            )
        else:
            self.const_pos = None
            self.const_vals = None

        # -- generated code --------------------------------------------
        module = codegen.compile((shape, pad_lo, self.pshape, plan.offsets))
        self._fill_interior = module["fill_interior"]
        self._fill_boundary = module["fill_boundary"]
        self._compute = module["compute"]
        self._store = module["store"]
        self._fused_sweep = module["fused_sweep"]

        #: Per-offset padded-flat indices of the halo-touching elements
        #: (the overlap rim), resolved lazily.
        self._boundary_pidx = None
        #: Temporal lookahead tables + the per-absolute-step value cache.
        self._temporal_tables = None
        self._cache: dict = {}

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

    def padded(self, env) -> np.ndarray:
        """The calling thread's padded field (called from the generated
        code), this kernel's constant ring cells stamped: all kernels of a
        padded shape and dtype compute in it, one after the other.  Per
        *thread*: hybrid threads sweep one signature concurrently."""
        P = env.mmat.scratch("padded", self.pshape, self.dtype)
        if self.const_pos is not None:
            P.reshape(-1)[self.const_pos] = self.const_vals
        return P

    @property
    def nbytes(self) -> int:
        """Memory held by the ring tables (Fig. 12 bench)."""
        total = sum(seg.nbytes for part in self.ring_tables for seg in part)
        if self.const_pos is not None:
            total += self.const_pos.nbytes + self.const_vals.nbytes
        return total

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def __call__(self, env, fn, trace, work: int) -> None:
        """One fused whole-block sweep with full legacy side effects."""
        plan = self.plan
        tracer = global_tracer()
        if self.temporal > 1:
            missing = self._temporal_step(env, fn, tracer)
        elif plan.has_halo and env.has_pending_halo():
            missing = self._overlap_step(env, fn, tracer)
        else:
            # No halo dependence (or no exchange in flight): leave any
            # pending exchange alone — another block's boundary sweep is
            # the one meant to hide behind it.
            with tracer.span("sweep"):
                missing = self._fused_sweep(self, env, fn)
        plan.account(env, missing)
        env.mmat.note_execution(plan)
        trace.plan_gathers += 1
        trace.plan_sites += plan.n_sites
        trace.kernel_fused_calls += 1
        trace.updates += work * self.n_elem

    # ------------------------------------------------------------------
    # overlapped sweep (interior-first / halo-wait / boundary-rim)
    # ------------------------------------------------------------------
    def _boundary_indices(self):
        bp = self._boundary_pidx
        if bp is None:
            _, boundary = self.plan.element_partition()
            bp = (boundary, self._pidx_for(boundary))
            self._boundary_pidx = bp
        return bp

    def _pidx_for(self, elems: np.ndarray) -> List[np.ndarray]:
        """Per-offset padded-flat read indices for an element subset."""
        shape = self.shape
        nd = len(shape)
        ec = np.unravel_index(elems, shape)
        out = []
        for oi in range(self._off_arr.shape[0]):
            coords = tuple(
                ec[d] + int(self._off_arr[oi, d]) + self.pad_lo[d]
                for d in range(nd)
            )
            out.append(np.ravel_multi_index(coords, self.pshape).astype(np.intp))
        return out

    def _apply_at(self, fn, F: np.ndarray, pidx: List[np.ndarray], count: int):
        """Apply ``fn`` to per-offset 1-D gathers of an element subset."""
        vals = np.asarray(fn(*[F[p] for p in pidx]))
        if vals.shape != (count,):
            vals = np.broadcast_to(vals, (count,))
        return vals

    def _overlap_step(self, env, fn, tracer) -> int:
        """Fused equivalent of ``sweep_segment``'s overlapped path."""
        boundary_elems, bpidx = self._boundary_indices()
        interior = self.n_elem - int(boundary_elems.size)
        with tracer.span("sweep.interior", sites=interior):
            P, F = self._fill_interior(self, env)
            # Full-field compute while the halo is in flight: rim values
            # read unfilled ring cells and are recomputed below.
            res = _as_field(self._compute(P, fn), self.shape, self.dtype)
        env.complete_pending_halo()
        with tracer.span("sweep.boundary", sites=int(boundary_elems.size)):
            missing = self._fill_boundary(self, env, F)
            if boundary_elems.size:
                res.reshape(-1)[boundary_elems] = self._apply_at(
                    fn, F, bpidx, int(boundary_elems.size)
                )
        self._store(self, env, res)
        return missing

    # ------------------------------------------------------------------
    # temporal blocking (interior advanced N steps per full gather)
    # ------------------------------------------------------------------
    def _tables(self):
        t = self._temporal_tables
        if t is None:
            shape = self.shape
            nd = len(shape)
            n_off = self._off_arr.shape[0]
            strides = [1] * nd
            for d in range(nd - 2, -1, -1):
                strides[d] = strides[d + 1] * shape[d + 1]
            doff = [
                int(sum(int(self._off_arr[oi, d]) * strides[d] for d in range(nd)))
                for oi in range(n_off)
            ]
            # Erode the computable set one stencil radius per lookahead
            # level: an element is in level l+1 iff every offset lands
            # geometrically in-block *and* inside level l.
            mask = np.ones(shape, dtype=bool)
            levels = {}
            for level in range(2, self.temporal + 1):
                padded = np.zeros(self.pshape, dtype=bool)
                padded[self._interior_slices] = mask
                nxt = np.ones(shape, dtype=bool)
                for oi in range(n_off):
                    nxt &= padded[self._view_slices[oi]]
                mask = nxt
                idx = np.flatnonzero(mask.reshape(-1)).astype(np.intp)
                rim = np.flatnonzero(~mask.reshape(-1)).astype(np.intp)
                levels[level] = (idx, rim, self._pidx_for(rim))
            t = (doff, levels)
            self._temporal_tables = t
        return t

    def _temporal_step(self, env, fn, tracer) -> int:
        step = env.step
        entry = self._cache.get(step)
        if entry is not None:
            return self._temporal_hit(env, fn, tracer, entry)
        return self._temporal_miss(env, fn, tracer, step)

    def _temporal_miss(self, env, fn, tracer, step: int) -> int:
        plan = self.plan
        if plan.has_halo and env.has_pending_halo():
            boundary_elems, bpidx = self._boundary_indices()
            interior = self.n_elem - int(boundary_elems.size)
            with tracer.span("sweep.interior", sites=interior):
                P, F = self._fill_interior(self, env)
                res = _as_field(self._compute(P, fn), self.shape, self.dtype)
            env.complete_pending_halo()
            with tracer.span("sweep.boundary", sites=int(boundary_elems.size)):
                missing = self._fill_boundary(self, env, F)
                if boundary_elems.size:
                    res.reshape(-1)[boundary_elems] = self._apply_at(
                        fn, F, bpidx, int(boundary_elems.size)
                    )
        else:
            with tracer.span("sweep"):
                P, F = self._fill_interior(self, env)
                missing = self._fill_boundary(self, env, F)
                res = _as_field(self._compute(P, fn), self.shape, self.dtype)
        self._store(self, env, res)

        # Lookahead: advance the eroding interior up to temporal-1 extra
        # steps from data this block just computed itself.  A re-executed
        # step (failed refresh) misses again — ``step`` did not advance —
        # and overwrites any stale entries.
        doff, levels = self._tables()
        self._cache.clear()
        cur = res.reshape(-1)
        for level in range(2, self.temporal + 1):
            idx, _rim, _rimp = levels[level]
            if not idx.size:
                break
            vals = np.asarray(fn(*[cur[idx + d] for d in doff]), dtype=self.dtype)
            if vals.shape != idx.shape:
                vals = np.ascontiguousarray(np.broadcast_to(vals, idx.shape))
            self._cache[step + level - 1] = (level, vals)
            if level < self.temporal:
                cur[idx] = vals
        return missing

    def _temporal_hit(self, env, fn, tracer, entry) -> int:
        level, vals = entry
        if self.plan.has_halo and env.has_pending_halo():
            env.complete_pending_halo()
        _doff, levels = self._tables()
        idx, rim, rimp = levels[level]
        with tracer.span("sweep", temporal=level):
            P, F = self._fill_interior(self, env)
            missing = self._fill_boundary(self, env, F)
            out = env.mmat.scratch("merged", (self.n_elem,), self.dtype)
            out[idx] = vals
            if rim.size:
                out[rim] = self._apply_at(fn, F, rimp, int(rim.size))
            self._store(self, env, out.reshape(self.shape))
        return missing


def fused_kernel_for(
    env,
    block,
    plan,
    fn,
    *,
    temporal: int = 1,
    codegen: Optional[str] = None,
    trace=None,
) -> Optional[FusedKernel]:
    """Cached-or-compiled fused kernel for ``(plan, fn)``, or None.

    Returns None when the combination cannot be fused (address plans,
    multi-component blocks, codegen failure) — the caller falls back to
    the gather/apply/scatter path.  Failures are cached as
    :data:`UNFUSABLE` under the same key, so the fallback costs one dict
    lookup per sweep.  The key includes ``plan.version``: a plan
    recompiled after ``MMAT.reset`` can never resurrect a stale kernel.
    """
    mmat = env.mmat
    fn_id = getattr(fn, "__code__", None) or fn
    key = (plan.version, fn_id, plan.dtype, int(temporal))
    kern = mmat.fused_lookup(key)
    if kern is not None:
        return None if kern is UNFUSABLE else kern
    try:
        chosen = resolve_codegen(codegen)
        with global_tracer().span("kernel.fuse", sites=plan.n_sites):
            kern = FusedKernel(block, plan, temporal, chosen)
    except CodegenError:
        mmat.fused_store(key, UNFUSABLE)
        return None
    mmat.fused_store(key, kern)
    if trace is not None:
        trace.kernel_fuse += 1
    return kern
