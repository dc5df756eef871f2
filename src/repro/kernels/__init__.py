"""Fused sweep kernels.

The fusion pass (:mod:`repro.kernels.fused`) binds an offsets
:class:`~repro.memory.mmat.AccessPlan` plus an elementwise kernel ``fn``
into one kernel that gathers, applies and scatters without
materialising the intermediate ``(n_offsets, n_elem)`` tensor; its
slices, shapes and ring tables are precomputed from the plan's shape
and stencil (plain NumPy, no dependencies beyond it).
"""

from __future__ import annotations

from .fused import FusedKernel, fused_kernel_for

__all__ = ["FusedKernel", "fused_kernel_for"]
