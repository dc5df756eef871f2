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

While an overlapped halo exchange is in flight the kernel computes the
whole field first, waits for the halo, then recomputes only the
boundary rim (:meth:`FusedKernel._overlap_step`), so the wait hides
behind the interior.  ``fn`` must therefore be elementwise over sites —
true for every stencil update.

Fused kernels are cached on the :class:`~repro.memory.mmat.MMAT`
keyed ``(plan version, fn identity, dtype)``; ``MMAT.reset()`` clears
them together with the plans, and a recompiled plan's fresh version
implicitly invalidates its old fusions.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..obs.spans import global_tracer
from .numpy_src import compile_module

__all__ = ["FusedKernel", "fused_kernel_for"]


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

        # -- ring-fill tables (the plan's segments and constants are ----
        #    exactly its out-of-block sites)
        #: The plan's merged tables re-aimed at the padded field's ring
        #: cells: ``(owned, ghost)``, both over the image's ``owned ∥
        #: ghost`` array, filled by ``PlanSegment.gather``; the ghost ones
        #: after the halo wait.
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
        module = compile_module((shape, pad_lo, self.pshape, plan.offsets))
        self._fill_interior = module["fill_interior"]
        self._fill_boundary = module["fill_boundary"]
        self._compute = module["compute"]
        self._store = module["store"]
        self._fused_sweep = module["fused_sweep"]

        #: Per-offset padded-flat indices of the halo-touching elements
        #: (the overlap rim), resolved lazily.
        self._boundary_pidx = None

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
        """One fused whole-block sweep, accounted as a plan execution."""
        plan = self.plan
        tracer = global_tracer()
        if plan.has_halo and env.has_pending_halo():
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
        """Compute the field while the halo travels, wait for it, then
        recompute the halo-dependent rim."""
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
