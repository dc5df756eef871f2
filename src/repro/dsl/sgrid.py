"""DSL processing system for 2-D structured grids ("SGrid").

The paper's ``SU_Target_SGrid2D<double, 8, 9>`` virtual class: a DSL
for iterative stencil computations on a regular 2-D grid.  The DSL
defines

* the Env structure: the domain ``region × region`` is tiled into
  square Blocks of ``block_size × block_size`` points; a Dirichlet
  boundary is provided by an :class:`~repro.memory.block.ArithmeticBlock`
  ring around the domain (optionally a Neumann boundary through a
  :class:`~repro.memory.block.ReferenceBlock`);
* the address mapping: global addresses are ``(x, y)`` grid
  coordinates, local addresses are block-relative;
* the kernel sugar: :meth:`SGrid2DTarget.block_kernels` yields a
  :class:`~repro.dsl.base.BlockKernel` per Block of the calling task.

End users subclass :class:`SGrid2DTarget` and implement
``processing`` plus their stencil kernel (see
:mod:`repro.apps.jacobi_sgrid` and the examples).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

import numpy as np

from ..memory.block import ArithmeticBlock, DataBlock, ReferenceBlock
from ..memory.env import Env
from .base import BlockSpec, DslTarget, evaluate_init

__all__ = ["SGrid2DTarget"]


class SGrid2DTarget(DslTarget):
    """DSL target for 2-D structured-grid applications.

    Configuration keys (``config`` dict passed by the Platform):

    ``region``
        Edge length of the square domain in grid points (default 64).
    ``block_size``
        Edge length of one Block (default 16; paper uses 256).
    ``page_elements``
        Elements per page (default 256; paper uses 2^8 = 256 points).
    ``boundary_value``
        Dirichlet value outside the domain (default 0.0).
    ``boundary``
        ``"dirichlet"`` (Arithmetic Block, default) or ``"neumann"``
        (Reference Block mirroring the interior).
    ``loops``
        Number of time steps to run (default 4).
    ``init``
        Optional pure function ``(x, y) -> float`` providing the initial
        field (zero without one).  It is tried once per Block on the
        Block's int64 coordinate arrays, where integer arithmetic wraps
        as NumPy's does; an ``init`` that raises on arrays (a conditional,
        ``float(...)``) or returns anything but a bool/int/float array of
        the Block's shape or a scalar is called per point with Python
        ints instead (see :func:`~repro.dsl.base.evaluate_init`).
    """

    ACCESS_PATTERN = "contiguous"
    BYTES_PER_UPDATE = 5 * 8  # five-point stencil of float64

    def __init__(self, config: Optional[dict] = None) -> None:
        super().__init__(config)
        self.region: int = int(self.config.get("region", 64))
        self.block_size: int = int(self.config.get("block_size", 16))
        self.page_elements: int = int(self.config.get("page_elements", 256))
        self.boundary_value: float = float(self.config.get("boundary_value", 0.0))
        self.boundary_kind: str = str(self.config.get("boundary", "dirichlet"))
        #: Pure ``(x, y) -> float``; tried on int64 arrays, else per point.
        self.init_fn: Optional[Callable[[Any, Any], Any]] = self.config.get("init")
        if self.region % self.block_size != 0:
            raise ValueError(
                f"region {self.region} must be a multiple of block_size {self.block_size}"
            )

    # ------------------------------------------------------------------
    # Env construction (the Memory Library for Target Apps)
    # ------------------------------------------------------------------
    def block_specs(self) -> List[BlockSpec]:
        n_blocks = self.region // self.block_size
        specs: List[BlockSpec] = []
        for by in range(n_blocks):
            for bx in range(n_blocks):
                origin = (bx * self.block_size, by * self.block_size)
                specs.append(
                    BlockSpec(
                        origin=origin,
                        shape=(self.block_size, self.block_size),
                        logical_key=("sgrid", bx, by),
                        grid_coords=(bx, by),
                    )
                )
        return specs

    def build_env(self) -> Env:
        env = self.make_env(name=f"sgrid{self.region}")
        blocks = self.materialize_blocks(
            env,
            self.block_specs(),
            components=1,
            page_elements=self.page_elements,
        )
        self._attach_boundary(env)
        self._initialise_field(blocks)
        return env

    def _attach_boundary(self, env: Env) -> None:
        n = self.region
        if self.boundary_kind == "dirichlet":
            value = self.boundary_value
            boundary = ArithmeticBlock(
                (-1, -1),
                (n + 2, n + 2),
                lambda addr, v=value: v,
                name="dirichlet-ring",
            )
        elif self.boundary_kind == "neumann":
            def mirror(addr):
                x, y = addr
                x = min(max(x, 0), n - 1)
                y = min(max(y, 0), n - 1)
                from ..memory.address import GlobalAddress

                return GlobalAddress((x, y))

            boundary = ReferenceBlock((-1, -1), (n + 2, n + 2), mirror, name="neumann-ring")
        else:
            raise ValueError(f"unknown boundary kind {self.boundary_kind!r}")
        env.add_boundary_block(boundary)

    def _initialise_field(self, blocks: List[DataBlock]) -> None:
        """Fill this rank's Data Blocks with the initial field (both buffers)."""
        for block in blocks:
            if not block.holds_data or block.kind != "data":
                continue
            (bx0, by0), (sx, sy) = block.origin, block.shape
            ys, xs = np.indices((sy, sx), dtype=np.int64)
            field = evaluate_init(self.init_fn, xs + bx0, ys + by0)
            flat = field.T.reshape(-1, 1)
            # Load the same initial data into every buffer generation so the
            # first step reads well-defined values regardless of swap parity.
            for buf in block.buffer.buffers:
                buf.load_dense(flat)

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        self.result = self.owned_part()

    def assemble(self, parts: list) -> np.ndarray:
        """The ``(region, region)`` field from every rank's owned Blocks
        (NaN on a site no part holds)."""
        field = np.full((self.region, self.region), np.nan, dtype=np.float64)
        for part in parts:
            for (x0, y0), (sx, sy), values in part:
                field[x0 : x0 + sx, y0 : y0 + sy] = values.reshape(sx, sy)
        return field
