"""Fused-kernel source: specialised NumPy, ``exec``-compiled.

A fused sweep (:class:`~repro.kernels.fused.FusedKernel`) fills the
thread's padded scratch field, then computes and stores.  This module
emits the fill, specialised to one structural signature: make the
plan's ghost rows current (:meth:`~repro.memory.env.Env.fill_ghosts`),
copy the block's own read buffer (a slice of the dense image) into the
interior of the padded field ``P``, stamp the kernel's unfilled cells
with an interior value, and fill the ring cells — mirror boundaries,
neighbour Data Blocks and halo rows alike — through one precomputed
gather table per image class.

The compute that follows reads ``P`` through its flat buffer ``F``
(``P`` is ``F``'s head; a trailing margin takes the last padded row's
shifted reads): one contiguous 1-D slice per stencil offset.

Shapes, pads and sizes are baked into the source as literals; the
compiled code object is cached per structural signature, so every block
of the same shape/stencil shares it.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["compile_module"]

#: Compiled code objects keyed by structural signature; every block with
#: the same shape/stencil shares one.
_CODE: Dict[Tuple, object] = {}


def emit_source(signature: Tuple) -> str:
    """Emit the fill function's source for one structural signature."""
    shape, pad_lo, pshape, offsets, flat, start = signature
    psize = int(np.prod(pshape))
    interior = ", ".join(f"{a}:{a + n}" for a, n in zip(pad_lo, shape))
    shape_r = repr(tuple(int(s) for s in shape))
    lines = [
        f"# fused fill: shape={shape_r} pad={tuple(pad_lo)!r} offsets={offsets!r}",
        "",
        "def fill(K, env):",
        "    missing = env.fill_ghosts(K.plan)",
        "    F = K.padded(env)",
        f"    F[:{psize}].reshape({tuple(pshape)!r})[{interior}] = "
        f"env.dense_read(K.block)[:, 0].reshape({shape_r})",
        f"    F[K.stamps] = F[{start}]",
        f"    ring = F.reshape({flat}, 1)",
        "    for table in K.ring_tables:",
        "        table.gather(env, ring)",
        "    return F, missing",
        "",
    ]
    return "\n".join(lines)


def compile_module(signature: Tuple) -> dict:
    """A fresh namespace holding the generated ``fill`` of ``signature``."""
    code = _CODE.get(signature)
    if code is None:
        label = "x".join(str(int(s)) for s in signature[0])
        code = _CODE[signature] = compile(
            emit_source(signature), f"<fused-kernel {label}>", "exec"
        )
    namespace: dict = {}
    exec(code, namespace)
    return namespace
