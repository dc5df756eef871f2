"""Fused-kernel source: specialised NumPy, ``exec``-compiled.

The emitted module performs one whole-block sweep as

1. ``fill_interior`` — copy the block's own read buffer (a slice of
   the dense image) into the interior of the thread's padded scratch
   field ``P`` and fill the ring cells served by locally-owned sources
   (mirror boundaries, neighbour Data Blocks) with precomputed gather
   tables;
2. ``fill_boundary`` — after :meth:`~repro.memory.env.Env.fill_ghosts`
   (the halo wait), fill the ring cells served by Buffer-only (halo)
   sources from the same image array through the ghost ring table;
3. ``compute`` — call the elementwise ``fn`` on one shifted *view* of
   ``P`` per stencil offset (no per-offset gather arrays are ever
   materialised — this is the fusion);
4. ``store`` — copy the result, once, into the block's write buffer:
   its rows of the image's ``next`` slab.

Shapes, pads and view slices are baked into the source as literals; the
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


def _index(bounds) -> str:
    """Render ``P[a0:b0, a1:b1, ...]`` slice text from (start, stop) pairs."""
    return ", ".join(f"{a}:{b}" for a, b in bounds)


def emit_source(signature: Tuple) -> str:
    """Emit the fused-sweep module source for one structural signature."""
    shape, pad_lo, pshape, offsets = signature
    nd = len(shape)
    n_elem = 1
    for s in shape:
        n_elem *= int(s)
    psize = 1
    for s in pshape:
        psize *= int(s)
    interior = _index(
        [(pad_lo[d], pad_lo[d] + shape[d]) for d in range(nd)]
    )
    views = [
        "P["
        + _index(
            [
                (pad_lo[d] + off[d], pad_lo[d] + off[d] + shape[d])
                for d in range(nd)
            ]
        )
        + "]"
        for off in offsets
    ]
    shape_r = repr(tuple(int(s) for s in shape))
    lines = [
        f"# fused sweep: shape={shape_r} pad={tuple(pad_lo)!r} offsets={offsets!r}",
        "",
        "def fill_interior(K, env):",
        "    P = K.padded(env)",
        f"    P[{interior}] = env.dense_read(K.block)[:, 0].reshape({shape_r})",
        f"    ring = P.reshape({psize}, 1)",
        "    for table in K.ring_tables[0]:",
        "        table.gather(env, ring)",
        f"    return P, P.reshape({psize})",
        "",
        "def fill_boundary(K, env, F):",
        "    missing = env.fill_ghosts(K.plan)",
        f"    ring = F.reshape({psize}, 1)",
        "    for table in K.ring_tables[1]:",
        "        table.gather(env, ring)",
        "    return missing",
        "",
        "def compute(P, fn):",
        f"    return fn({', '.join(views)})",
        "",
        "def store(K, env, res):",
        "    res = np.asarray(res)",
        f"    if res.size == {n_elem}:",
        f"        res = res.reshape({shape_r})",
        "    rows = K.block.buffer.write_buffer.runs()[0]",
        f"    np.copyto(rows.reshape({shape_r}), res, casting='unsafe')",
        "",
        "def fused_sweep(K, env, fn):",
        "    P, F = fill_interior(K, env)",
        "    missing = fill_boundary(K, env, F)",
        "    store(K, env, compute(P, fn))",
        "    return missing",
        "",
    ]
    return "\n".join(lines)


def compile_module(signature: Tuple) -> dict:
    """A fresh namespace holding the generated functions of ``signature``
    (``fill_interior`` / ``fill_boundary`` / ``compute`` / ``store`` /
    ``fused_sweep``)."""
    code = _CODE.get(signature)
    if code is None:
        label = "x".join(str(int(s)) for s in signature[0])
        code = _CODE[signature] = compile(
            emit_source(signature), f"<fused-kernel {label}>", "exec"
        )
    namespace = {"np": np}
    exec(code, namespace)
    return namespace
