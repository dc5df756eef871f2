"""End-user application: Jacobi solver on the unstructured-grid DSL.

Same arithmetic as :class:`~repro.apps.jacobi_sgrid.JacobiSGrid`, but
the neighbours of each cell are reached through the Global Addresses
stored with the cell data (indirect references), as the paper's USGrid
benchmark does.  The memory-access pattern depends on the DSL layout
(CaseC: consecutive / CaseR: random), not on this application code —
"CaseC and CaseR have the same calculation, differing only in memory
access".

The default ``"vectorized"`` kernel bulk-reads the neighbour table
through :meth:`~repro.dsl.base.BlockKernel.gather_global` (compiled
into one address plan per *tile* of Blocks after warm-up — the
indirection is resolved once, not once per iteration);
``kernel="scalar"`` selects the per-cell reference loop.
"""

from __future__ import annotations

from typing import Optional

from ..dsl.usgrid import USGrid2DTarget

__all__ = ["JacobiUSGrid"]


class JacobiUSGrid(USGrid2DTarget):
    """Jacobi relaxation of the Laplace equation on a 2-D unstructured grid."""

    def __init__(self, config: Optional[dict] = None) -> None:
        super().__init__(config)
        self.alpha: float = float(self.config.get("alpha", 0.2))
        self.beta: float = float(self.config.get("beta", 0.2))

    def processing(self) -> None:
        self.warm_up(self.kernel)
        for _ in range(self.loops):
            self.run(self.kernel)

    def kernel(self, warmup: bool) -> bool:
        if self.vectorized:
            return self.kernel_vectorized(warmup)
        return self.kernel_scalar(warmup)

    def kernel_vectorized(self, warmup: bool) -> bool:
        """Bulk indirect gather: one address plan per tile per table."""
        alpha, beta = self.alpha, self.beta
        for k in self.tile_kernels(warmup):
            e = k.gather([(0,)])[0]
            # (cells, 4) neighbour values in west/east/north/south column
            # order; the table is static, so name it for plan caching.
            neigh = k.gather_global(k.static_field("neighbors"), key="neighbors")
            ans = alpha * e + beta * (neigh[:, 1] + neigh[:, 0] + neigh[:, 3] + neigh[:, 2])
            k.scatter(ans)
        return self.refresh(warmup)

    def kernel_scalar(self, warmup: bool) -> bool:
        """Per-cell reference kernel following the stored Global Addresses."""
        alpha, beta = self.alpha, self.beta
        for block, k in self.block_kernels(warmup):
            neighbours = k.static_field("neighbors")
            count = block.shape[0]
            for offset in range(count):
                e = k.get_direct((offset,))
                west, east, north, south = neighbours[offset]
                # Neighbour cells live at arbitrary global addresses; whether
                # they are in this Block is unknown statically, so the inside
                # hint is always False (this is what makes MMAT matter here).
                e_w = k.get_global((west,))
                e_e = k.get_global((east,))
                e_n = k.get_global((north,))
                e_s = k.get_global((south,))
                ans = alpha * e + beta * (e_e + e_w + e_s + e_n)
                k.set((offset,), ans)
        return self.refresh(warmup)
