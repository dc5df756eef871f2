"""Fused sweep kernels.

The fusion pass (:mod:`repro.kernels.fused`) compiles an offsets
:class:`~repro.memory.mmat.AccessPlan` plus an elementwise kernel ``fn``
into one generated function that gathers, applies and scatters without
materialising the intermediate ``(n_offsets, n_elem)`` tensor.  The
function is NumPy source specialised to the plan's shape and stencil and
``exec``-compiled (:mod:`repro.kernels.numpy_src`; no dependencies
beyond NumPy).
"""

from __future__ import annotations

from .fused import FusedKernel, fused_kernel_for

__all__ = ["FusedKernel", "fused_kernel_for"]
